package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
)

// digest accumulates model_digest: a SHA-256 over every simulated field
// of every op's report, walked in declaration order, so any change to a
// simulated number changes the digest. Fields named Backend are
// skipped: they hold the backend's registry label, which differs
// between the traced and untraced runs of the same simulation.
type digest struct {
	h   hash.Hash
	err error
}

func newDigest() *digest { return &digest{h: sha256.New()} }

// add folds one op's name and report (or its error) into the digest.
func (d *digest) add(name string, rep any, runErr error) {
	d.str(name)
	if runErr != nil {
		d.str("error: " + runErr.Error())
		return
	}
	d.value(reflect.ValueOf(rep))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *digest) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.u64(1)
		d.value(v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).Name == "Backend" {
				continue
			}
			d.value(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.String:
		d.str(v.String())
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	default:
		// A map or func would make the digest order-dependent or
		// meaningless; fail loudly if a report ever grows one.
		if d.err == nil {
			d.err = fmt.Errorf("digest: unsupported %s field of type %s", v.Kind(), v.Type())
		}
	}
}
