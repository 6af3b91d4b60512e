// Package benchsuite is what is left of the retired suite harness: the
// parser for the TOML subset its suite files were written in. perfbench
// and BENCHMARK.json replaced the harness, and nothing in the program
// imports this package; ROADMAP.md item 6 lists its deletion.
package benchsuite

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file is a parser for the TOML subset suite files use, in keeping
// with the repo's zero-dependency stance (the exemplar, golang/benchmarks'
// bent, declares its suites in TOML too). Supported grammar:
//
//	# comment
//	key = value                  # bare keys: letters, digits, '_', '-'
//	[table]                      # dotted names allowed: [suite.tolerance]
//	[[array-of-table]]           # appends one table to the named array
//
// Values: basic strings "..." (with \" \\ \n \t \r escapes), integers,
// floats, booleans, and single- or multi-line arrays of those. What TOML
// allows beyond this — literal strings, datetimes, inline tables, dotted
// keys — is rejected with a line-numbered error rather than misparsed.

// tomlDoc is the generic parse result: scalar values, []any arrays, nested
// map[string]any tables, and []map[string]any arrays of tables.
type tomlDoc = map[string]any

// parseTOML parses the subset described above.
func parseTOML(data []byte) (tomlDoc, error) {
	root := tomlDoc{}
	cur := root // table new keys land in

	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		ln := i + 1
		line := stripComment(lines[i])
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}

		// [[array.of.tables]]
		if strings.HasPrefix(trimmed, "[[") {
			if !strings.HasSuffix(trimmed, "]]") {
				return nil, fmt.Errorf("line %d: unterminated table-array header %q", ln, trimmed)
			}
			name := strings.TrimSpace(trimmed[2 : len(trimmed)-2])
			parent, last, err := walkTables(root, name, ln)
			if err != nil {
				return nil, err
			}
			arr, _ := parent[last].([]map[string]any)
			if parent[last] != nil && arr == nil {
				return nil, fmt.Errorf("line %d: %q is not an array of tables", ln, name)
			}
			t := map[string]any{}
			parent[last] = append(arr, t)
			cur = t
			continue
		}

		// [table]
		if strings.HasPrefix(trimmed, "[") {
			if !strings.HasSuffix(trimmed, "]") {
				return nil, fmt.Errorf("line %d: unterminated table header %q", ln, trimmed)
			}
			name := strings.TrimSpace(trimmed[1 : len(trimmed)-1])
			parent, last, err := walkTables(root, name, ln)
			if err != nil {
				return nil, err
			}
			t, ok := parent[last].(map[string]any)
			if parent[last] != nil && !ok {
				return nil, fmt.Errorf("line %d: %q already holds a value", ln, name)
			}
			if t == nil {
				t = map[string]any{}
				parent[last] = t
			}
			cur = t
			continue
		}

		// key = value
		key, raw, ok := strings.Cut(trimmed, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: expected `key = value`, got %q", ln, trimmed)
		}
		key = strings.TrimSpace(key)
		if !validBareKey(key) {
			return nil, fmt.Errorf("line %d: invalid key %q (bare keys only)", ln, key)
		}
		raw = strings.TrimSpace(raw)
		// Multi-line array: keep appending lines until brackets balance
		// outside strings.
		for strings.HasPrefix(raw, "[") && !bracketsBalanced(raw) {
			i++
			if i >= len(lines) {
				return nil, fmt.Errorf("line %d: unterminated array for key %q", ln, key)
			}
			raw += " " + strings.TrimSpace(stripComment(lines[i]))
		}
		v, err := parseValue(raw, ln)
		if err != nil {
			return nil, err
		}
		if _, dup := cur[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", ln, key)
		}
		cur[key] = v
	}
	return root, nil
}

// walkTables resolves all but the last segment of a dotted table name,
// creating intermediate tables, and returns the parent map plus the final
// segment.
func walkTables(root tomlDoc, name string, ln int) (map[string]any, string, error) {
	if name == "" {
		return nil, "", fmt.Errorf("line %d: empty table name", ln)
	}
	segs := strings.Split(name, ".")
	parent := root
	for _, s := range segs[:len(segs)-1] {
		s = strings.TrimSpace(s)
		if !validBareKey(s) {
			return nil, "", fmt.Errorf("line %d: invalid table name segment %q", ln, s)
		}
		next, ok := parent[s].(map[string]any)
		if parent[s] != nil && !ok {
			// Descending into the latest element of an array of tables
			// ([[job]] then [job.tolerance]) is valid TOML but not part of
			// this subset; suites have no use for it.
			return nil, "", fmt.Errorf("line %d: %q is not a table", ln, s)
		}
		if next == nil {
			next = map[string]any{}
			parent[s] = next
		}
		parent = next
	}
	last := strings.TrimSpace(segs[len(segs)-1])
	if !validBareKey(last) {
		return nil, "", fmt.Errorf("line %d: invalid table name segment %q", ln, last)
	}
	return parent, last, nil
}

func validBareKey(k string) bool {
	if k == "" {
		return false
	}
	for _, r := range k {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
			return false
		}
	}
	return true
}

// stripComment removes a trailing # comment, respecting strings.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inStr {
				i++
			}
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

// bracketsBalanced reports whether every '[' outside a string has its ']'.
func bracketsBalanced(s string) bool {
	depth, inStr := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inStr {
				i++
			}
		case '"':
			inStr = !inStr
		case '[':
			if !inStr {
				depth++
			}
		case ']':
			if !inStr {
				depth--
			}
		}
	}
	return depth == 0
}

// parseValue parses one scalar or array value.
func parseValue(raw string, ln int) (any, error) {
	raw = strings.TrimSpace(raw)
	switch {
	case raw == "":
		return nil, fmt.Errorf("line %d: missing value", ln)
	case raw == "true":
		return true, nil
	case raw == "false":
		return false, nil
	case raw[0] == '"':
		s, rest, err := parseString(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", ln, err)
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("line %d: trailing data %q after string", ln, rest)
		}
		return s, nil
	case raw[0] == '[':
		return parseArray(raw, ln)
	case raw[0] == '\'':
		return nil, fmt.Errorf("line %d: literal strings are outside the suite TOML subset; use \"...\"", ln)
	default:
		// Numbers. TOML allows underscores as digit separators.
		clean := strings.ReplaceAll(raw, "_", "")
		if n, err := strconv.ParseInt(clean, 10, 64); err == nil {
			return n, nil
		}
		if f, err := strconv.ParseFloat(clean, 64); err == nil {
			return f, nil
		}
		return nil, fmt.Errorf("line %d: cannot parse value %q", ln, raw)
	}
}

// parseString consumes a leading basic string and returns it with the
// remainder of the input.
func parseString(raw string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(raw); i++ {
		switch raw[i] {
		case '"':
			return b.String(), raw[i+1:], nil
		case '\\':
			i++
			if i >= len(raw) {
				return "", "", fmt.Errorf("unterminated escape in %q", raw)
			}
			switch raw[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				return "", "", fmt.Errorf("unsupported escape \\%c", raw[i])
			}
		default:
			b.WriteByte(raw[i])
		}
	}
	return "", "", fmt.Errorf("unterminated string %q", raw)
}

// parseArray parses a (possibly already line-joined) array of scalars.
func parseArray(raw string, ln int) ([]any, error) {
	if !strings.HasSuffix(strings.TrimSpace(raw), "]") {
		return nil, fmt.Errorf("line %d: unterminated array %q", ln, raw)
	}
	inner := strings.TrimSpace(raw)
	inner = strings.TrimSpace(inner[1 : len(inner)-1])
	out := []any{}
	for inner != "" {
		var (
			elem any
			rest string
			err  error
		)
		switch inner[0] {
		case '"':
			var s string
			s, rest, err = parseString(inner)
			elem = s
		case '[':
			return nil, fmt.Errorf("line %d: nested arrays are outside the suite TOML subset", ln)
		default:
			tok := inner
			if j := strings.IndexByte(inner, ','); j >= 0 {
				tok, rest = inner[:j], inner[j:]
			} else {
				rest = ""
			}
			elem, err = parseValue(strings.TrimSpace(tok), ln)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, elem)
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return nil, fmt.Errorf("line %d: expected ',' between array elements, got %q", ln, rest)
		}
		inner = strings.TrimSpace(rest[1:])
	}
	return out, nil
}
