package lint

import (
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the library behind cmd/allocheck: it matches the compiler's
// escape-analysis diagnostics (`go build -gcflags=-m`) against the
// functions the hotalloc analyzer found marked `simlint:hotpath`. The gate
// tolerates none: any heap escape inside a hotpath body — a refactor that
// quietly promotes a per-µop value to the heap — fails before a benchmark
// ever runs. TestSimAllocCeiling (alloc_test.go at the repository root)
// pins the other half: what one whole frozen run allocates.

// Escape is one compiler escape decision attributed to a hotpath function.
type Escape struct {
	Func    string // e.g. "(*MemSystem).Load"
	Message string // e.g. "func literal escapes to heap"
	Count   int
}

// escapeMarkers are the -m diagnostics that denote a heap allocation.
// "does not escape", "leaking param", and inlining chatter are ignored.
var escapeMarkers = []string{"escapes to heap", "moved to heap"}

// ParseEscapes extracts the hotpath-attributed escape decisions from
// `go build -gcflags=-m` output. dir anchors the compiler's relative file
// paths; funcs are the hotalloc-collected ranges (absolute File paths).
func ParseEscapes(dir string, output []byte, funcs []HotFunc) []Escape {
	counts := map[Escape]int{}
	for _, line := range strings.Split(string(output), "\n") {
		file, lineNo, msg, ok := parseDiagLine(line)
		if !ok || !isEscapeMsg(msg) {
			continue
		}
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, file)
		}
		for _, f := range funcs {
			if f.File == abs && f.StartLine <= lineNo && lineNo <= f.EndLine {
				counts[Escape{Func: f.Name, Message: msg, Count: 1}]++
				break
			}
		}
	}
	out := make([]Escape, 0, len(counts))
	for k, n := range counts {
		k.Count = n
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// parseDiagLine splits a `file.go:line:col: message` compiler diagnostic.
func parseDiagLine(line string) (file string, lineNo int, msg string, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", 0, "", false
	}
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	if _, err := strconv.Atoi(parts[2]); err != nil {
		return "", 0, "", false
	}
	return parts[0], n, strings.TrimSpace(parts[3]), true
}

func isEscapeMsg(msg string) bool {
	for _, m := range escapeMarkers {
		if strings.Contains(msg, m) {
			return true
		}
	}
	return false
}
