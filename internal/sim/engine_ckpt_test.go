package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
)

// engineCkptConfig puts cfg on the checkpointing schedule so snapshots
// carry every listed engine's opaque state blob.
func engineCkptConfig(cfg Config) Config {
	cfg.WarmupOps = 12_000
	cfg.CheckpointEveryOps = 5_000
	return cfg
}

// table3Config is Table 3's markov_1/2 machine: a 512 KiB STAB behind the
// stride baseline, with the UL2 cut to 512 KiB.
func table3Config() Config {
	return testConfig().WithMarkov(512*1024, cache.Config{SizeBytes: 512 * 1024, Ways: 8, LineSize: LineSize})
}

// TestResumeByteIdenticalEngines extends the resume tentpole to every
// engine list: a run resumes from every boundary snapshot — each engine's
// table included — to the uninterrupted result, byte for byte.
func TestResumeByteIdenticalEngines(t *testing.T) {
	for name, cfg := range map[string]Config{
		"pangloss":        testConfig().WithEngine("pangloss"),
		"bestoffset":      testConfig().WithEngine("bestoffset"),
		"markov":          table3Config(),
		"markov+pangloss": table3Config().WithEngine("pangloss"),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := engineCkptConfig(cfg)
			var blobs [][]byte
			want, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, func(s *Snapshot) error {
				blob, err := EncodeSnapshot(s)
				if err != nil {
					return err
				}
				blobs = append(blobs, blob)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(blobs) < 3 {
				t.Fatalf("only %d boundaries hit; trace too short for the test to mean anything", len(blobs))
			}
			for i, blob := range blobs {
				snap, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				got, err := Resume(context.Background(), buildChase(t, 2000, 2, 2, true), cfg, snap, nil)
				if err != nil {
					t.Fatalf("resume from boundary %d: %v", snap.OpsFetched, err)
				}
				sameResult(t, want, got)
			}
		})
	}
}

// TestResumeRejectsEngineMismatch pins the snapshot guard for the Engines
// list: a snapshot taken under one list must not restore into a machine
// running another — a different entrant, the same engines in another
// order, or a shorter list.
func TestResumeRejectsEngineMismatch(t *testing.T) {
	cfg := engineCkptConfig(table3Config().WithEngine("pangloss"))
	if cfg.Engines != "stride+markov:entries=21845+pangloss" {
		t.Fatalf("test premise: engine list %q", cfg.Engines)
	}
	ck := buildChase(t, 1500, 1, 2, true)
	var snap *Snapshot
	if _, err := RunCheckpointed(ck, cfg, func(s *Snapshot) error {
		if snap == nil {
			snap = s
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	for name, engines := range map[string]string{
		"other entrant": "stride+markov:entries=21845+bestoffset",
		"reordered":     "stride+pangloss+markov:entries=21845",
		"shortened":     "stride+markov:entries=21845",
		"stride only":   "stride",
	} {
		other := cfg
		other.Engines = engines
		// Keep the name so the config-name guard passes and the
		// engine-list guard is what fires.
		if _, err := Resume(context.Background(), ck, other, snap, nil); err == nil {
			t.Errorf("%s (%q): engine-list mismatch accepted", name, engines)
		} else if !strings.Contains(err.Error(), "engine") {
			t.Errorf("%s: mismatch error does not name the engines: %v", name, err)
		}
	}
}

// TestValidateRejectsUnknownEngine is the regression the cdpsim exit-2
// convention depends on: a bad Engines spec fails Validate with the
// registry's full valid-name listing, so every surface (flag, API, config
// file) reports the same actionable message.
func TestValidateRejectsUnknownEngine(t *testing.T) {
	cfg := Default().WithEngine("quake3")
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown engine passed Validate")
	}
	if !strings.Contains(err.Error(), "valid: bestoffset, cdp, markov, pangloss, stride") {
		t.Fatalf("error does not list valid engines: %v", err)
	}

	// Fill-stream engines must be rejected with a pointer at the Content
	// knob rather than silently double-wiring the CDP.
	cdp := Default().WithEngine("cdp")
	if err := cdp.Validate(); err == nil || !strings.Contains(err.Error(), "Content") {
		t.Fatalf("fill-stream engine spec not redirected to Content: %v", err)
	}

	// A list naming one engine twice would run a second table at a later
	// rank; it must be rejected by name, whatever the parameters.
	dup := Default().WithEngine("stride:degree=4")
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), `"stride" twice`) {
		t.Fatalf("duplicate engine accepted or not named: %v", err)
	}
}
