// Package registry names the prefetcher zoo. Every engine the simulator
// can attach — the stride baseline, the Markov STAB, the content-directed
// prefetcher, and the newer delta/offset entrants — registers here under a
// stable name, buildable from a textual spec:
//
//	name[:key=value[,key=value...]]
//
// e.g. "pangloss", "stride:degree=4,distance=20", "markov:entries=8192".
// The spec is the unit of configuration everywhere engines are selected:
// each element of sim.Config.Engines' "+"-separated list, cdpsim's -engine
// flag, and the cdpd arena sweep. It is deliberately a flat string so the
// simcache content key hashes it without new encoder cases, and so an
// engine plus its parameters is one copy-pasteable token.
package registry

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// Param is one key=value pair from an engine spec, in spec order.
type Param struct {
	Key, Value string
}

// Params is an engine spec's parameter list. A slice (not a map) keeps
// error messages and application order deterministic.
type Params []Param

// intOr returns the named parameter as an int, or def when absent.
func (ps Params) intOr(key string, def int) (int, error) {
	for _, p := range ps {
		if p.Key == key {
			v, err := strconv.Atoi(p.Value)
			if err != nil {
				return 0, fmt.Errorf("prefetch registry: parameter %s=%q is not an integer", key, p.Value)
			}
			return v, nil
		}
	}
	return def, nil
}

// boolOr returns the named parameter as a bool, or def when absent.
func (ps Params) boolOr(key string, def bool) (bool, error) {
	for _, p := range ps {
		if p.Key == key {
			v, err := strconv.ParseBool(p.Value)
			if err != nil {
				return false, fmt.Errorf("prefetch registry: parameter %s=%q is not a bool", key, p.Value)
			}
			return v, nil
		}
	}
	return def, nil
}

// Entry is one registered engine.
type Entry struct {
	// Name is the spec name ("stride", "pangloss", ...).
	Name string
	// Doc is a one-line description for listings (/v1/engines, cdpsim).
	Doc string
	// Keys are the parameter names the builder accepts; anything else in
	// a spec is rejected before the builder runs.
	Keys []string
	// Build constructs the engine from parsed parameters.
	Build func(ps Params) (prefetch.Prefetcher, error)
}

// entries is the zoo, kept sorted by name so Names() needs no sort and
// every listing is deterministic.
var entries = []Entry{
	{
		Name: "bestoffset",
		Doc:  "best-offset spatial prefetcher (Michaud HPCA'16): learns the one line offset that best predicts the L2 miss stream",
		Keys: []string{"rr", "round", "scoremax", "badscore", "degree"},
		Build: func(ps Params) (prefetch.Prefetcher, error) {
			cfg := prefetch.DefaultBestOffsetConfig
			var err error
			if cfg.RRSize, err = ps.intOr("rr", cfg.RRSize); err != nil {
				return nil, err
			}
			if cfg.RoundMisses, err = ps.intOr("round", cfg.RoundMisses); err != nil {
				return nil, err
			}
			if cfg.ScoreMax, err = ps.intOr("scoremax", cfg.ScoreMax); err != nil {
				return nil, err
			}
			if cfg.BadScore, err = ps.intOr("badscore", cfg.BadScore); err != nil {
				return nil, err
			}
			if cfg.Degree, err = ps.intOr("degree", cfg.Degree); err != nil {
				return nil, err
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return prefetch.NewBestOffset(cfg), nil
		},
	},
	{
		Name: "cdp",
		Doc:  "stateless content-directed prefetcher (the paper): scans filled lines for pointer-shaped words and chases them",
		Keys: []string{"depth", "next", "prev", "reinforce"},
		Build: func(ps Params) (prefetch.Prefetcher, error) {
			cfg := core.DefaultConfig
			var err error
			if cfg.DepthThreshold, err = ps.intOr("depth", cfg.DepthThreshold); err != nil {
				return nil, err
			}
			if cfg.NextLines, err = ps.intOr("next", cfg.NextLines); err != nil {
				return nil, err
			}
			if cfg.PrevLines, err = ps.intOr("prev", cfg.PrevLines); err != nil {
				return nil, err
			}
			if cfg.Reinforce, err = ps.boolOr("reinforce", cfg.Reinforce); err != nil {
				return nil, err
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return newCDPEngine(cfg), nil
		},
	},
	{
		Name: "markov",
		Doc:  "Joseph & Grunwald Markov STAB (ISCA'97): address-keyed successor table over the L2 miss stream, fanout 4",
		Keys: []string{"entries"},
		Build: func(ps Params) (prefetch.Prefetcher, error) {
			cfg := prefetch.MarkovConfig{MaxEntries: prefetch.MarkovEntriesForBudget(512 * 1024)}
			var err error
			if cfg.MaxEntries, err = ps.intOr("entries", cfg.MaxEntries); err != nil {
				return nil, err
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return prefetch.NewMarkov(cfg), nil
		},
	},
	{
		Name: "pangloss",
		Doc:  "Pangloss-style compressed Markov delta predictor (arXiv 1906.00877): delta-transition table walked as a prediction chain",
		Keys: []string{"rows", "slots", "degree", "minconf", "maxconf"},
		Build: func(ps Params) (prefetch.Prefetcher, error) {
			cfg := prefetch.DefaultPanglossConfig
			var err error
			if cfg.Rows, err = ps.intOr("rows", cfg.Rows); err != nil {
				return nil, err
			}
			if cfg.Slots, err = ps.intOr("slots", cfg.Slots); err != nil {
				return nil, err
			}
			if cfg.Degree, err = ps.intOr("degree", cfg.Degree); err != nil {
				return nil, err
			}
			minConf, err := ps.intOr("minconf", int(cfg.MinConfidence))
			if err != nil {
				return nil, err
			}
			maxConf, err := ps.intOr("maxconf", int(cfg.MaxConfidence))
			if err != nil {
				return nil, err
			}
			if minConf < 0 || minConf > 255 || maxConf < 0 || maxConf > 255 {
				return nil, fmt.Errorf("prefetch registry: pangloss confidence outside [0,255]")
			}
			cfg.MinConfidence, cfg.MaxConfidence = uint8(minConf), uint8(maxConf)
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return prefetch.NewPangloss(cfg), nil
		},
	},
	{
		Name: "stride",
		Doc:  "reference-prediction-table stride prefetcher (the paper's baseline machine): 2-delta confirmed strides on the L1 miss stream",
		Keys: []string{"entries", "degree", "distance"},
		Build: func(ps Params) (prefetch.Prefetcher, error) {
			cfg := prefetch.DefaultStrideConfig
			var err error
			if cfg.TableEntries, err = ps.intOr("entries", cfg.TableEntries); err != nil {
				return nil, err
			}
			if cfg.Degree, err = ps.intOr("degree", cfg.Degree); err != nil {
				return nil, err
			}
			if cfg.Distance, err = ps.intOr("distance", cfg.Distance); err != nil {
				return nil, err
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return prefetch.NewStride(cfg), nil
		},
	},
}

// Names returns the registered engine names, sorted.
func Names() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Lookup finds an entry by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// ParseSpec splits "name[:k=v,...]" into the engine name and its
// parameters, rejecting malformed or duplicate pairs.
func ParseSpec(spec string) (string, Params, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	if name == "" {
		return "", nil, fmt.Errorf("prefetch registry: empty engine spec")
	}
	if !hasParams {
		return name, nil, nil
	}
	var ps Params
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("prefetch registry: malformed parameter %q in spec %q (want key=value)", pair, spec)
		}
		for _, prev := range ps {
			if prev.Key == k {
				return "", nil, fmt.Errorf("prefetch registry: duplicate parameter %q in spec %q", k, spec)
			}
		}
		ps = append(ps, Param{Key: k, Value: v})
	}
	return name, ps, nil
}

// Build constructs an engine from a spec. Unknown engine names report the
// valid ones (callers surface this verbatim: sim.Config.Validate, cdpsim's
// exit-2 path, the arena's 400s).
func Build(spec string) (prefetch.Prefetcher, error) {
	name, ps, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("prefetch registry: unknown engine %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	for _, p := range ps {
		known := false
		for _, k := range e.Keys {
			if k == p.Key {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("prefetch registry: engine %q has no parameter %q (valid: %s)",
				name, p.Key, strings.Join(e.Keys, ", "))
		}
	}
	return e.Build(ps)
}

// Validate reports whether a spec names a registered engine with
// well-formed parameters.
func Validate(spec string) error {
	_, err := Build(spec)
	return err
}

// MustBuild is Build for specs that already passed Validate.
func MustBuild(spec string) prefetch.Prefetcher {
	eng, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return eng
}
