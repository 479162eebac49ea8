package main

import (
	"testing"
	"time"

	"gplus/internal/core"
)

func TestFormatStageTimings(t *testing.T) {
	got := formatStageTimings([]core.StageTiming{
		{Stage: "degrees", Dur: 2*time.Millisecond + 345*time.Nanosecond},
		{Stage: "paths", Dur: 310 * time.Millisecond},
	})
	if want := "structure stage wall-clock: degrees=2ms paths=310ms"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
