package simcache

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func specFor(t *testing.T, name string) workloads.Spec {
	t.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeyCanonicalEquality: configurations that compare equal — and
// configurations that are value-equal but built independently (distinct
// pointers to equal policy blocks) — must share a key.
func TestKeyCanonicalEquality(t *testing.T) {
	spec := specFor(t, "tpcc-1")
	a := sim.Default()
	b := a // shares pointer fields, so a == b
	if a != b {
		t.Fatal("copied config does not compare equal")
	}
	if KeyFor(spec, a, 60_000) != KeyFor(spec, b, 60_000) {
		t.Fatal("equal configs produced different keys")
	}

	// Same machine, independently built: pointer identity differs, the
	// canonical key must not.
	c1 := sim.Default().WithContent(core.DefaultConfig)
	c2 := sim.Default().WithContent(core.DefaultConfig)
	if c1.Content == c2.Content {
		t.Fatal("test premise broken: WithContent shared a pointer")
	}
	if KeyFor(spec, c1, 60_000) != KeyFor(spec, c2, 60_000) {
		t.Fatal("value-equal configs with distinct pointers produced different keys")
	}
}

// TestKeySeparatesInputs: the non-config inputs (benchmark, ops) are part
// of the key.
func TestKeySeparatesInputs(t *testing.T) {
	cfg := sim.Default()
	base := KeyFor(specFor(t, "tpcc-1"), cfg, 60_000)
	if KeyFor(specFor(t, "tpcc-2"), cfg, 60_000) == base {
		t.Fatal("different benchmarks share a key")
	}
	if KeyFor(specFor(t, "tpcc-1"), cfg, 60_001) == base {
		t.Fatal("different µop budgets share a key")
	}
	if KeyForExperiment("fig1", 60_000, true) == KeyForExperiment("fig1", 60_000, false) {
		t.Fatal("reps flag not part of the experiment key")
	}
}

// TestKeySensitiveToEveryField walks the fully-populated configuration
// (content enabled, so its pointer is followed; stride + markov in the
// engine list) and perturbs each scalar leaf in turn: every single-field change must
// change the key, and undoing it must restore the key.
func TestKeySensitiveToEveryField(t *testing.T) {
	spec := specFor(t, "tpcc-1")
	cfg := sim.Default().WithContent(core.DefaultConfig)
	cfg = cfg.WithMarkov(128*1024, cfg.L2)
	// Deep-copy so mutations through pointer fields cannot corrupt the
	// caller's configuration.
	v := deepCopy(reflect.ValueOf(cfg))
	base := KeyFor(spec, v.Interface().(sim.Config), 60_000)

	leaves := 0
	perturbLeaves(v, "Config", func(path string) {
		leaves++
		got := KeyFor(spec, v.Interface().(sim.Config), 60_000)
		if got == base {
			t.Errorf("mutating %s did not change the key", path)
		}
	})
	if leaves < 30 {
		t.Fatalf("walked only %d leaves; the config walk is not reaching nested blocks", leaves)
	}
	if got := KeyFor(spec, v.Interface().(sim.Config), 60_000); got != base {
		t.Fatal("restoring every field did not restore the key")
	}
}

// deepCopy clones a value tree of the kinds the canonical encoder accepts.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		p := reflect.New(v.Type().Elem())
		p.Elem().Set(deepCopy(v.Elem()))
		return p
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
		return out
	default:
		out := reflect.New(v.Type()).Elem()
		out.Set(v)
		return out
	}
}

// perturbLeaves visits every scalar leaf reachable from v, mutates it,
// invokes check, and restores the original value before moving on.
func perturbLeaves(v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			perturbLeaves(v.Elem(), path, check)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			perturbLeaves(v.Field(i), path+"."+f.Name, check)
		}
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "×")
		check(path)
		v.SetString(old)
	default:
		panic(fmt.Sprintf("perturbLeaves: unhandled kind %s at %s", v.Kind(), path))
	}
}

// TestKeyForArenaSeparatesInterval: a sweep's cells run under the server's
// default checkpoint interval, which perturbs their timing, so a report
// cached under one interval must not answer a sweep under another.
func TestKeyForArenaSeparatesInterval(t *testing.T) {
	benchmarks, engines := []string{"b2c"}, []string{"cdp"}
	keys := map[Key]int{}
	for _, every := range []int{0, 25_000, 50_000} {
		keys[KeyForArena(benchmarks, engines, 60_000, every)] = every
	}
	if len(keys) != 3 {
		t.Fatalf("intervals 0, 25000 and 50000 share arena keys: %v", keys)
	}
}
