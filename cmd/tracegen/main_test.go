package main

import (
	"strings"
	"testing"
)

// TestParseGen pins gen's command line: flags go before or after the
// benchmark, and a flag missing its value, an -ops that is not a positive
// integer, or anything but one benchmark name is an error.
func TestParseGen(t *testing.T) {
	ok := []struct {
		args []string
		want genArgs
	}{
		{[]string{"b2b"}, genArgs{name: "b2b"}},
		{[]string{"-ops", "20000", "-o", "t.cdpt", "b2b"}, genArgs{ops: 20000, out: "t.cdpt", name: "b2b"}},
		{[]string{"b2b", "-ops", "20000"}, genArgs{ops: 20000, name: "b2b"}},
		{[]string{"-o", "t.cdpt", "b2b", "-ops=300"}, genArgs{ops: 300, out: "t.cdpt", name: "b2b"}},
	}
	for _, c := range ok {
		got, err := parseGen(c.args)
		if err != nil || got != c.want {
			t.Errorf("parseGen(%q) = %+v, %v; want %+v", c.args, got, err, c.want)
		}
	}
	bad := []struct {
		args []string
		want string
	}{
		{[]string{"b2b", "-ops"}, "flag needs an argument: -ops"},
		{[]string{"-o"}, "flag needs an argument: -o"},
		{[]string{"-ops", "2x0000", "b2b"}, `invalid value "2x0000" for flag -ops: want a positive integer`},
		{[]string{"-ops", "0", "b2b"}, `invalid value "0" for flag -ops: want a positive integer`},
		{[]string{"b2b", "-ops", "-5"}, `invalid value "-5" for flag -ops: want a positive integer`},
		{[]string{"-ops", "100"}, "want one benchmark, got 0"},
		{[]string{"b2b", "quake"}, "want one benchmark, got 2"},
		{[]string{"-bogus", "b2b"}, "flag provided but not defined: -bogus"},
	}
	for _, c := range bad {
		_, err := parseGen(c.args)
		if err == nil || err.Error() != c.want {
			t.Errorf("parseGen(%q) error %v, want %q", c.args, err, c.want)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("parseGen(%q) error spans lines: %q", c.args, err)
		}
	}
}
