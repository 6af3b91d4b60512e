// Package simcache is cdpd's content-addressed result cache. A simulation
// is a pure function of its inputs — PR 2's golden tests prove two runs of
// the same (benchmark, Config, ops) triple are byte-identical — so a
// rendered result can be cached under a canonical hash of those inputs and
// served to every later identical request. The cache is LRU-bounded by
// payload bytes, and concurrent misses on the same key are collapsed so a
// stampede of identical submissions simulates exactly once.
package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// Key addresses one cached result. Keys are canonical: they depend only on
// the values reachable from the inputs (pointers are followed, never
// compared by address), so two configurations that describe the same
// machine produce the same key no matter how they were built.
type Key [sha256.Size]byte

// String renders a short hex prefix for logs and job IDs.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// Hex renders the full key, the form the disk and peer cache tiers address
// entries by (the 8-byte String prefix is for humans; tiers need the whole
// hash so distinct results can never alias on disk or over HTTP).
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseKey inverts Hex. It rejects anything that is not exactly one
// full-length lowercase-hex key, so a peer-fetch URL or a stray file in the
// cache directory cannot smuggle in a truncated key.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*len(k) {
		return Key{}, fmt.Errorf("simcache: key %q is %d hex chars, want %d", s, len(s), 2*len(k))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("simcache: key %q is not hex: %v", s, err)
	}
	copy(k[:], b)
	return k, nil
}

// KeyFor hashes one simulation request. The benchmark is identified by
// name (workloads.Spec builders are registered by name and deterministic),
// the µop budget pins the generated trace, and the configuration is walked
// field by field.
func KeyFor(spec workloads.Spec, cfg sim.Config, ops int) Key {
	h := sha256.New()
	e := encoder{h: h}
	e.str("sim")
	e.str(spec.Name)
	e.i64(int64(ops))
	e.value(reflect.ValueOf(cfg))
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyForExperiment hashes one registered-experiment request. Experiments
// are deterministic for the same (id, ops, reps) triple, so their rendered
// reports are cacheable exactly like single simulations.
func KeyForExperiment(id string, ops int, reps bool) Key {
	h := sha256.New()
	e := encoder{h: h}
	e.str("experiment")
	e.str(id)
	e.i64(int64(ops))
	e.boolean(reps)
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyForArena hashes one arena-sweep request. The engine and benchmark
// lists are length-prefixed so no concatenation of two lists collides with
// a different split of the same names. checkpointEvery is the interval the
// server stamps onto the cells: it perturbs their timing, so a report
// computed under one interval must not answer a sweep under another. It is
// hashed only when set, so unsegmented sweeps keep their keys.
func KeyForArena(benchmarks, engines []string, ops, checkpointEvery int) Key {
	h := sha256.New()
	e := encoder{h: h}
	e.str("arena")
	e.i64(int64(ops))
	if checkpointEvery != 0 {
		e.i64(int64(checkpointEvery))
	}
	e.u64(uint64(len(benchmarks)))
	for _, b := range benchmarks {
		e.str(b)
	}
	e.u64(uint64(len(engines)))
	for _, eng := range engines {
		e.str(eng)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// encoder writes an injective binary form of a value tree into a hash.
// Every atom is prefixed with a kind tag and, where variable-length, a
// length, so no two distinct value trees share an encoding — the property
// behind the "any single field change changes the key" guarantee.
type encoder struct{ h hash.Hash }

// Kind tags. The gap between scalar kinds and structure kinds is cosmetic;
// only distinctness matters.
const (
	tagBool   = 1
	tagInt    = 2
	tagUint   = 3
	tagFloat  = 4
	tagString = 5
	tagNilPtr = 6
	tagPtr    = 7
	tagStruct = 8
	tagArray  = 9
)

func (e encoder) byte(b byte) { e.h.Write([]byte{b}) }

func (e encoder) i64(v int64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	e.h.Write(buf[:])
}

func (e encoder) u64(v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	e.h.Write(buf[:])
}

func (e encoder) str(s string) {
	e.byte(tagString)
	e.u64(uint64(len(s)))
	e.h.Write([]byte(s))
}

func (e encoder) boolean(b bool) {
	e.byte(tagBool)
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// value encodes v recursively. Configuration types are compositions of
// scalars, strings, structs, arrays, and pointers to such; any other kind
// (map, slice, func, chan, interface) has no canonical form and panics, so
// adding an unhashable field to sim.Config fails loudly in the simcache
// tests rather than silently aliasing cache entries.
func (e encoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		e.boolean(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.byte(tagInt)
		e.i64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.byte(tagUint)
		e.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.byte(tagFloat)
		e.u64(math.Float64bits(v.Float()))
	case reflect.String:
		e.str(v.String())
	case reflect.Pointer:
		if v.IsNil() {
			e.byte(tagNilPtr)
			return
		}
		e.byte(tagPtr)
		e.value(v.Elem())
	case reflect.Struct:
		e.byte(tagStruct)
		t := v.Type()
		e.str(t.Name())
		e.u64(uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			e.str(t.Field(i).Name)
			e.value(v.Field(i))
		}
	case reflect.Array:
		e.byte(tagArray)
		e.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			e.value(v.Index(i))
		}
	default:
		panic(fmt.Sprintf("simcache: cannot canonically hash kind %s (type %s)", v.Kind(), v.Type()))
	}
}
