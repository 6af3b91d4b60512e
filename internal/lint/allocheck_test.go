package lint

import (
	"reflect"
	"testing"
)

// TestParseEscapes: only heap escapes inside a hotpath range are
// attributed, to the function that holds them. These are what allocheck
// fails on.
func TestParseEscapes(t *testing.T) {
	dir := "/repo"
	funcs := []HotFunc{
		{Name: "(*MemSystem).Load", File: "/repo/internal/sim/memsys.go", StartLine: 200, EndLine: 240},
		{Name: "(*Tracer).Emit", File: "/repo/internal/simtrace/simtrace.go", StartLine: 150, EndLine: 160},
	}
	output := `# repro/internal/sim
internal/sim/memsys.go:226:28: func literal escapes to heap
internal/sim/memsys.go:226:28: walk does not escape
internal/sim/memsys.go:500:3: make([]byte, n) escapes to heap
internal/sim/other.go:226:1: escapes to heap
# repro/internal/simtrace
internal/simtrace/simtrace.go:155:2: moved to heap: e
internal/simtrace/simtrace.go:149:6: can inline (*Tracer).Emit
not a diagnostic line
`
	got := ParseEscapes(dir, []byte(output), funcs)
	want := []Escape{
		{Func: "(*MemSystem).Load", Message: "func literal escapes to heap", Count: 1},
		{Func: "(*Tracer).Emit", Message: "moved to heap: e", Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseEscapes:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseEscapesCountsDuplicates(t *testing.T) {
	funcs := []HotFunc{{Name: "F", File: "/r/f.go", StartLine: 1, EndLine: 50}}
	output := "f.go:10:1: x escapes to heap\nf.go:20:1: x escapes to heap\n"
	got := ParseEscapes("/r", []byte(output), funcs)
	if len(got) != 1 || got[0].Count != 2 {
		t.Fatalf("got %+v, want one escape with count 2", got)
	}
}
