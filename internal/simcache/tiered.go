package simcache

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
)

// PeerPicker names the peers worth asking for a key, best candidate first.
// The cluster worker implements it over its synced hash ring: the ring
// owner when that is not this process, else the owner's ring successor —
// the member most likely to hold the key from before the latest remap.
type PeerPicker interface {
	Peers(key Key) []string
}

// TierStats counts the disk and peer tiers' traffic, exported by cdpd's
// /metrics alongside the in-memory Stats.
type TierStats struct {
	DiskHits        uint64
	DiskMisses      uint64
	SpillWrites     uint64
	SpillErrors     uint64
	DiskQuarantines uint64
	PeerHits        uint64
	PeerMisses      uint64
}

const (
	// peerFetchTimeout bounds one peer cache probe. A peer fetch is an
	// optimization over recomputing, never required for correctness, so it
	// fails fast rather than inheriting a simulation-sized deadline.
	peerFetchTimeout = 2 * time.Second
	// maxPeerPayload bounds a peer response; rendered results are a few KB,
	// so anything near this is a confused or hostile peer.
	maxPeerPayload = 32 << 20
)

// PeerCachePath is the worker endpoint prefix peer fetches GET from; the
// full key hex follows it. Defined here so the worker handler and the
// fetch path cannot drift.
const PeerCachePath = "/v1/cache/"

// TieredCache layers cdpd's shared result tiers over the in-memory LRU:
//
//	mem   the process-local Cache (LRU + singleflight), always present
//	disk  content-addressed files under dir, shared across restarts and —
//	      on a shared filesystem — across workers ("" disables)
//	peer  HTTP fetch from the ring owner's resident tiers (nil disables)
//
// Lookups probe warm-to-cold and promote hits into every warmer tier, so a
// result computed anywhere in the cluster migrates toward whoever keeps
// asking for it. Computation still happens at most once per process (the
// mem tier's singleflight), and at most once per cluster when the
// coordinator routes a key to its ring owner.
type TieredCache struct {
	mem    *Cache
	dir    string
	picker PeerPicker
	httpc  *http.Client

	// rootCtx bounds peer fetches; Close cancels it.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	diskHits        atomic.Uint64
	diskMisses      atomic.Uint64
	spillWrites     atomic.Uint64
	spillErrors     atomic.Uint64
	diskQuarantines atomic.Uint64
	peerHits        atomic.Uint64
	peerMisses      atomic.Uint64
}

// NewTiered wraps mem with a disk tier under dir ("" = none) and a peer
// tier driven by picker (nil = none). The returned cache owns no goroutines
// but holds a lifecycle context for its peer fetches; Close releases it.
//
// Peer fetches deliberately run under this root with a short per-fetch
// timeout instead of a caller context: they are a cache probe racing a
// recompute, and a caller's simulation-scale deadline must not keep a dead
// peer's connection pinned for minutes.
//
// simlint:rootctx
func NewTiered(mem *Cache, dir string, picker PeerPicker) *TieredCache {
	ctx, cancel := context.WithCancel(context.Background())
	return &TieredCache{
		mem:        mem,
		dir:        dir,
		picker:     picker,
		httpc:      &http.Client{},
		rootCtx:    ctx,
		rootCancel: cancel,
	}
}

// Close cancels any in-flight peer fetches.
func (t *TieredCache) Close() { t.rootCancel() }

// Stats returns the in-memory tier's counters (the shape /metrics has
// always exported); TierStats covers the colder tiers.
func (t *TieredCache) Stats() Stats { return t.mem.Stats() }

// TierStats snapshots the disk and peer counters.
func (t *TieredCache) TierStats() TierStats {
	return TierStats{
		DiskHits:        t.diskHits.Load(),
		DiskMisses:      t.diskMisses.Load(),
		SpillWrites:     t.spillWrites.Load(),
		SpillErrors:     t.spillErrors.Load(),
		DiskQuarantines: t.diskQuarantines.Load(),
		PeerHits:        t.peerHits.Load(),
		PeerMisses:      t.peerMisses.Load(),
	}
}

// Get probes every tier warm-to-cold, promoting a hit into the warmer
// tiers. Callers must not mutate the returned slice.
func (t *TieredCache) Get(k Key) ([]byte, bool) {
	if data, ok := t.mem.Get(k); ok {
		return data, true
	}
	if data, ok := t.diskGet(k); ok {
		t.mem.Add(k, data)
		return data, true
	}
	if data, ok := t.peerGet(k); ok {
		t.mem.Add(k, data)
		t.spill(k, data)
		return data, true
	}
	return nil, false
}

// GetLocal probes only the tiers resident on this machine (mem, disk).
// The peer-fetch HTTP handler serves from it, which is what keeps two
// workers that both miss from chasing each other in a fetch loop.
func (t *TieredCache) GetLocal(k Key) ([]byte, bool) {
	if data, ok := t.mem.Get(k); ok {
		return data, true
	}
	if data, ok := t.diskGet(k); ok {
		t.mem.Add(k, data)
		return data, true
	}
	return nil, false
}

// GetOrCompute is the mem tier's singleflight with the cold tiers probed
// before compute runs: concurrent identical misses still collapse to one
// leader, and the leader checks disk and peers before paying for a
// simulation. Freshly computed payloads spill to disk.
func (t *TieredCache) GetOrCompute(k Key, compute func() ([]byte, error)) ([]byte, bool, error) {
	return t.mem.GetOrCompute(k, func() ([]byte, error) {
		if data, ok := t.diskGet(k); ok {
			return data, nil
		}
		if data, ok := t.peerGet(k); ok {
			t.spill(k, data)
			return data, nil
		}
		data, err := compute()
		if err == nil {
			t.spill(k, data)
		}
		return data, err
	})
}

// diskPath is the content-addressed file for k.
func (t *TieredCache) diskPath(k Key) string { return filepath.Join(t.dir, k.Hex()) }

// crcTrailerLen is the size of the big-endian IEEE CRC32 appended to every
// spilled entry. Rename makes spills atomic against our own crashes, but
// the filesystem underneath may still tear a write (power loss, a shared
// NFS mount, an operator's stray truncate); the trailer lets a reader tell
// a torn entry from a real payload.
const crcTrailerLen = 4

// diskGet reads k from the spill directory and verifies the CRC trailer.
// A short or corrupt file is quarantined — renamed aside with a .corrupt
// suffix so it stops matching the content address — and treated as a miss;
// the caller recomputes and the next spill rewrites the entry cleanly.
func (t *TieredCache) diskGet(k Key) ([]byte, bool) {
	if t.dir == "" {
		return nil, false
	}
	path := t.diskPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.diskMisses.Add(1)
		return nil, false
	}
	if len(raw) < crcTrailerLen {
		t.quarantine(path)
		return nil, false
	}
	data, trailer := raw[:len(raw)-crcTrailerLen], raw[len(raw)-crcTrailerLen:]
	if crc32.ChecksumIEEE(data) != binary.BigEndian.Uint32(trailer) {
		t.quarantine(path)
		return nil, false
	}
	t.diskHits.Add(1)
	return data, true
}

// quarantine moves a torn or corrupt entry out of the content-addressed
// namespace and records the event as a miss. Renaming (rather than
// deleting) keeps the evidence for operators; either way the entry stops
// poisoning lookups.
func (t *TieredCache) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		_ = os.Remove(path)
	}
	t.diskQuarantines.Add(1)
	t.diskMisses.Add(1)
}

// spill persists a payload plus its CRC32 trailer to the disk tier
// (atomic: temp + rename, so our own crash mid-write leaves no torn entry;
// a concurrent spill of the same key writes identical bytes anyway). Spill
// failures cost durability, never the request. The disk.cache.torn-write
// fault point models the tear rename cannot prevent — a lower layer losing
// the tail of the file — by truncating the payload mid-byte.
func (t *TieredCache) spill(k Key, data []byte) {
	if t.dir == "" {
		return
	}
	framed := make([]byte, len(data)+crcTrailerLen)
	copy(framed, data)
	binary.BigEndian.PutUint32(framed[len(data):], crc32.ChecksumIEEE(data))
	if faultinject.Should("disk.cache.torn-write") {
		framed = framed[:len(framed)/2]
	}
	if err := atomicfile.Write(t.diskPath(k), framed); err != nil {
		t.spillErrors.Add(1)
		return
	}
	t.spillWrites.Add(1)
}

// peerGet asks the picker's candidates for k, first answer wins. Every
// failure mode — no picker, no candidates, fetch errors, 404s — is just a
// miss; the caller recomputes. The cluster.peerfetch.error fault point
// models an unreachable or lying peer.
func (t *TieredCache) peerGet(k Key) ([]byte, bool) {
	if t.picker == nil {
		return nil, false
	}
	peers := t.picker.Peers(k)
	if len(peers) == 0 {
		return nil, false
	}
	for _, base := range peers {
		if err := faultinject.Error("cluster.peerfetch.error"); err != nil {
			continue
		}
		if data, ok := t.fetchFrom(base, k); ok {
			t.peerHits.Add(1)
			return data, true
		}
	}
	t.peerMisses.Add(1)
	return nil, false
}

// fetchFrom GETs one peer's local tiers for k.
func (t *TieredCache) fetchFrom(base string, k Key) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(t.rootCtx, peerFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PeerCachePath+k.Hex(), nil)
	if err != nil {
		return nil, false
	}
	resp, err := t.httpc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerPayload))
	if err != nil {
		return nil, false
	}
	return data, true
}
