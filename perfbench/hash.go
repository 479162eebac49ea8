package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"

	"gplus/internal/paper"
)

// hashResults is a canonical hash of an audit's results: every field
// reached through pointers, slices and maps (keys sorted), floats by
// their bits so NaN compares too. Fields named Timings are left out,
// since wall-clock differs between any two runs.
func hashResults(r *paper.Results) string {
	var buf bytes.Buffer
	encodeValue(&buf, reflect.ValueOf(r))
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func encodeValue(buf *bytes.Buffer, v reflect.Value) {
	var word [8]byte
	putUint := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		buf.Write(word[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		buf.WriteString("<nil>")
	case reflect.Bool:
		if v.Bool() {
			putUint(1)
		} else {
			putUint(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putUint(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		putUint(v.Uint())
	case reflect.Float32, reflect.Float64:
		putUint(math.Float64bits(v.Float()))
	case reflect.String:
		putUint(uint64(v.Len()))
		buf.WriteString(v.String())
	case reflect.Slice, reflect.Array:
		putUint(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			encodeValue(buf, v.Index(i))
		}
	case reflect.Map:
		type entry struct{ key, val []byte }
		entries := make([]entry, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var k, e bytes.Buffer
			encodeValue(&k, iter.Key())
			encodeValue(&e, iter.Value())
			entries = append(entries, entry{k.Bytes(), e.Bytes()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		putUint(uint64(len(entries)))
		for _, e := range entries {
			buf.Write(e.key)
			buf.Write(e.val)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).Name == "Timings" {
				continue
			}
			buf.WriteString(t.Field(i).Name)
			encodeValue(buf, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			buf.WriteString("<nil>")
			return
		}
		encodeValue(buf, v.Elem())
	default:
		// Channels and funcs carry no result data.
		buf.WriteString(v.Kind().String())
	}
}
