package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func goodOptions() options {
	return options{
		addr:       "127.0.0.1:0",
		queueCap:   64,
		cacheMB:    64,
		jobTimeout: time.Minute,
		drain:      time.Second,
	}
}

// TestValidate pins the startup contract: every broken flag is rejected
// with a message naming the flag and how to fix it, before any state
// exists.
func TestValidate(t *testing.T) {
	if err := validate(goodOptions()); err != nil {
		t.Fatalf("default-shaped options rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"empty addr", func(o *options) { o.addr = "" }, "-addr"},
		{"negative workers", func(o *options) { o.workers = -1 }, "-workers"},
		{"zero queue", func(o *options) { o.queueCap = 0 }, "-queue"},
		{"zero cache", func(o *options) { o.cacheMB = 0 }, "-cache-mb"},
		{"negative job timeout", func(o *options) { o.jobTimeout = -time.Second }, "-job-timeout"},
		{"negative drain", func(o *options) { o.drain = -time.Second }, "-drain"},
		{"negative checkpoint interval", func(o *options) { o.checkpointEvery = -5 }, "-checkpoint-every"},
		{"bad fault spec", func(o *options) { o.faults = "no.such.point" }, "-faults"},
		{"malformed fault option", func(o *options) { o.faults = "jobq.worker.crash:wat" }, "-faults"},
	}
	for _, c := range cases {
		o := goodOptions()
		c.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: message %q does not mention %q", c.name, err, c.want)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Errorf("%s: message is not one line: %q", c.name, err)
		}
	}
}

// TestValidateClusterFlags pins the cluster startup contract: role/join
// combinations that cannot work, and flags the role would not read, die
// with exit-worthy one-line messages naming the flag, before any directory
// is created; every coherent combination is accepted.
func TestValidateClusterFlags(t *testing.T) {
	stateDir := t.TempDir()
	untouched := t.TempDir() // refused cases name directories only here
	cases := []struct {
		name string
		mut  func(*options)
		want string // "" = must be accepted
	}{
		{"standalone explicit", func(o *options) { o.role = "standalone" }, ""},
		{"coordinator", func(o *options) { o.role = "coordinator" }, ""},
		{"worker with join", func(o *options) {
			o.role = "worker"
			o.joinURL = "http://127.0.0.1:8080"
		}, ""},
		{"bad role", func(o *options) { o.role = "follower" }, "-role"},
		{"worker without join", func(o *options) { o.role = "worker" }, "-join"},
		{"join on standalone", func(o *options) { o.joinURL = "http://127.0.0.1:8080" }, "-join"},
		{"join on coordinator", func(o *options) {
			o.role = "coordinator"
			o.joinURL = "http://127.0.0.1:8080"
		}, "-join"},
		{"relative join URL", func(o *options) {
			o.role = "worker"
			o.joinURL = "127.0.0.1:8080"
		}, "-join"},
		{"unparseable join URL", func(o *options) {
			o.role = "worker"
			o.joinURL = "http://bad url:x"
		}, "-join"},
		{"bad self URL", func(o *options) {
			o.role = "worker"
			o.joinURL = "http://127.0.0.1:8080"
			o.selfURL = "not-a-url"
		}, "-self-url"},
		{"negative lease TTL", func(o *options) {
			o.role = "coordinator"
			o.leaseTTL = -time.Second
		}, "-lease-ttl"},
		{"state dir on coordinator", func(o *options) {
			o.role = "coordinator"
			o.stateDir = filepath.Join(stateDir, "journal")
		}, ""},
		{"state dir on standalone", func(o *options) {
			o.stateDir = filepath.Join(stateDir, "journal")
		}, "-state-dir"},
		{"state dir on worker", func(o *options) {
			o.role = "worker"
			o.joinURL = "http://127.0.0.1:8080"
			o.stateDir = filepath.Join(stateDir, "journal")
		}, "-state-dir"},
		{"every worker flag on a worker", func(o *options) {
			o.role = "worker"
			o.joinURL = "http://127.0.0.1:8080"
			o.name = "w1"
			o.selfURL = "http://127.0.0.1:8081"
			o.cacheDir = filepath.Join(stateDir, "spill")
			o.checkpointDir = filepath.Join(stateDir, "ckpt")
		}, ""},
		{"cache dir on coordinator", func(o *options) {
			o.role = "coordinator"
			o.cacheDir = filepath.Join(untouched, "spill")
		}, "-cache-dir only applies to -role standalone or worker; got -role coordinator"},
		{"checkpoint dir on coordinator", func(o *options) {
			o.role = "coordinator"
			o.stateDir = filepath.Join(untouched, "state")
			o.checkpointDir = filepath.Join(untouched, "ckpt")
		}, "-checkpoint-dir only applies to -role standalone or worker; got -role coordinator"},
		{"lease TTL on standalone", func(o *options) { o.leaseTTL = time.Second }, "-lease-ttl only applies to -role coordinator; got -role standalone"},
		{"lease TTL on worker", func(o *options) {
			o.role = "worker"
			o.joinURL = "http://127.0.0.1:8080"
			o.leaseTTL = time.Second
		}, "-lease-ttl only applies to -role coordinator; got -role worker"},
		{"name on standalone", func(o *options) { o.name = "w1" }, "-name only applies to -role worker; got -role standalone"},
		{"name on coordinator", func(o *options) {
			o.role = "coordinator"
			o.name = "w1"
		}, "-name only applies to -role worker; got -role coordinator"},
		{"self URL on standalone", func(o *options) { o.selfURL = "http://127.0.0.1:8081" }, "-self-url only applies to -role worker; got -role standalone"},
		{"self URL on coordinator", func(o *options) {
			o.role = "coordinator"
			o.selfURL = "http://127.0.0.1:8081"
		}, "-self-url only applies to -role worker; got -role coordinator"},
	}
	for _, c := range cases {
		o := goodOptions()
		c.mut(&o)
		err := validate(o)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: message %q does not mention %q", c.name, err, c.want)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Errorf("%s: message is not one line: %q", c.name, err)
		}
	}
	if entries, err := os.ReadDir(untouched); err != nil || len(entries) != 0 {
		t.Errorf("refused flags created %v (%v), want nothing", entries, err)
	}
}

// TestValidateCacheDirProbe: the shared-cache spill directory gets the same
// startup writability probe as the checkpoint dir — an unwritable path is a
// one-line -cache-dir error, a creatable one is made and left empty.
func TestValidateCacheDirProbe(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := goodOptions()
	o.cacheDir = filepath.Join(file, "sub")
	if err := validate(o); err == nil || !strings.Contains(err.Error(), "-cache-dir") {
		t.Fatalf("impossible dir: %v, want a -cache-dir error", err)
	}

	o.cacheDir = filepath.Join(base, "spill")
	if err := validate(o); err != nil {
		t.Fatalf("creatable dir rejected: %v", err)
	}
	entries, err := os.ReadDir(o.cacheDir)
	if err != nil {
		t.Fatalf("validate did not create the dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("probe file left behind: %v", entries)
	}
}

// TestAdvertiseURL: wildcard listen addresses advertise a dialable
// loopback URL; concrete hosts advertise themselves.
func TestAdvertiseURL(t *testing.T) {
	cases := map[string]string{
		":8080":            "http://127.0.0.1:8080",
		"0.0.0.0:9090":     "http://127.0.0.1:9090",
		"[::]:7070":        "http://127.0.0.1:7070",
		"10.1.2.3:8080":    "http://10.1.2.3:8080",
		"localhost:0":      "http://localhost:0",
		"192.168.1.5:6060": "http://192.168.1.5:6060",
	}
	for addr, want := range cases {
		if got := advertiseURL(addr); got != want {
			t.Errorf("advertiseURL(%q) = %q, want %q", addr, got, want)
		}
	}
}

// TestValidateCheckpointDirProbe: an impossible checkpoint path (a file in
// the way) fails at startup with the path in the message, and a good path
// is created and left probe-free.
func TestValidateCheckpointDirProbe(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := goodOptions()
	o.checkpointDir = filepath.Join(file, "sub")
	if err := validate(o); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("impossible dir: %v, want a -checkpoint-dir error", err)
	}

	o.checkpointDir = filepath.Join(base, "ckpt")
	if err := validate(o); err != nil {
		t.Fatalf("creatable dir rejected: %v", err)
	}
	entries, err := os.ReadDir(o.checkpointDir)
	if err != nil {
		t.Fatalf("validate did not create the dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("probe file left behind: %v", entries)
	}
}
