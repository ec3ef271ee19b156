package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// File format of one on-disk entry:
//
//	magic   8 bytes  "sbmemo1\n"
//	cost    8 bytes  little-endian uint64, simulate wall time in ns
//	length  8 bytes  little-endian uint64, payload byte count
//	payload length bytes
//	sum     32 bytes sha256(payload)
//
// The trailing checksum (not just a length) catches bit rot and partial
// writes that happen to keep the length plausible; anything that fails a
// check is a miss, never an error — Put simply rewrites the entry.
const (
	diskMagic  = "sbmemo1\n"
	diskHeader = len(diskMagic) + 8 + 8
	diskFooter = sha256.Size
)

// Stats is a point-in-time snapshot of a cache's counters. WallSaved sums
// the recorded simulate cost of every hit — the wall time the cache's
// consumers did not spend.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Stores    uint64
	Corrupt   uint64
	BytesRead uint64
	// BytesWritten counts payload bytes accepted by Put (memory layer);
	// disk write failures are best-effort and tracked in StoreErrs.
	BytesWritten uint64
	StoreErrs    uint64
	WallSaved    time.Duration
}

// String renders the snapshot as the CLI's -cache-stats line.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d stores, %.1f MiB read, %.1f MiB written, %s wall saved",
		s.Hits, s.Misses, s.Stores,
		float64(s.BytesRead)/(1<<20), float64(s.BytesWritten)/(1<<20),
		s.WallSaved.Round(time.Millisecond))
}

// entry is one cached result in the memory layer.
type entry struct {
	data []byte
	cost time.Duration
}

// Cache is a two-layer content-addressed result store, safe for concurrent
// use by the runner pool. The memory layer holds every entry touched this
// process; the disk layer (optional) persists entries across processes.
// Entries are immutable once stored: a key's payload can only ever be
// replaced by identical bytes, so last-write-wins races are harmless.
type Cache struct {
	mu  sync.RWMutex
	mem map[Key]entry
	dir string // "" = memory only

	tmpSeq atomic.Uint64

	hits, misses, stores  atomic.Uint64
	corrupt, storeErrs    atomic.Uint64
	bytesRead, bytesWrite atomic.Uint64
	wallSavedNS           atomic.Int64
}

// New builds a cache. dir "" is memory-only; otherwise the directory is
// created (mkdir -p) and entries persist there, one file per fingerprint,
// sharded by the key's first byte.
func New(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: creating cache directory: %w", err)
		}
	}
	return &Cache{mem: map[Key]entry{}, dir: dir}, nil
}

// Dir returns the disk layer's directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// path is the on-disk location for a key.
func (c *Cache) path(k Key) string {
	hex := k.String()
	return filepath.Join(c.dir, hex[:2], hex+".memo")
}

// Get looks the key up, memory first, then disk. A hit returns the stored
// payload (shared, read-only) and the recorded simulate cost. Corrupt or
// truncated disk entries count as misses.
func (c *Cache) Get(k Key) (data []byte, cost time.Duration, ok bool) {
	c.mu.RLock()
	e, ok := c.mem[k]
	c.mu.RUnlock()
	if !ok && c.dir != "" {
		if e, ok = c.readDisk(k); ok {
			// Promote, so repeated hits skip the filesystem. Another worker
			// may have raced the same promotion; the bytes are identical.
			c.mu.Lock()
			c.mem[k] = e
			c.mu.Unlock()
		}
	}
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	c.bytesRead.Add(uint64(len(e.data)))
	c.wallSavedNS.Add(int64(e.cost))
	return e.data, e.cost, true
}

// Put stores a freshly computed result under its key. cost is the wall
// time the computation took, paid back into WallSaved on every future hit.
// The payload is retained by reference; callers must not mutate it after.
// Disk writes are atomic (tmp + rename) and best-effort: a full disk
// degrades the cache, not the run.
func (c *Cache) Put(k Key, data []byte, cost time.Duration) {
	if k.IsZero() {
		return
	}
	c.mu.Lock()
	_, dup := c.mem[k]
	if !dup {
		c.mem[k] = entry{data: data, cost: cost}
	}
	c.mu.Unlock()
	if dup {
		return
	}
	c.stores.Add(1)
	c.bytesWrite.Add(uint64(len(data)))
	if c.dir != "" {
		if err := c.writeDisk(k, data, cost); err != nil {
			c.storeErrs.Add(1)
		}
	}
}

// NoteCorrupt records an entry whose payload failed the caller's decode —
// reachable only if bytes mutate after the checksum passed, but counted
// so a miscounting cache never hides it.
func (c *Cache) NoteCorrupt() { c.corrupt.Add(1) }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Stores:       c.stores.Load(),
		Corrupt:      c.corrupt.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWrite.Load(),
		StoreErrs:    c.storeErrs.Load(),
		WallSaved:    time.Duration(c.wallSavedNS.Load()),
	}
}

// readDisk loads and validates one on-disk entry. Every failure mode —
// absent, unreadable, short, bad magic, bad length, bad checksum — is a
// miss; corruption additionally bumps the Corrupt counter.
func (c *Cache) readDisk(k Key) (entry, bool) {
	raw, err := os.ReadFile(c.path(k))
	if err != nil {
		return entry{}, false
	}
	if len(raw) < diskHeader+diskFooter || string(raw[:len(diskMagic)]) != diskMagic {
		c.corrupt.Add(1)
		return entry{}, false
	}
	cost := binary.LittleEndian.Uint64(raw[len(diskMagic):])
	plen := binary.LittleEndian.Uint64(raw[len(diskMagic)+8:])
	if plen != uint64(len(raw)-diskHeader-diskFooter) {
		c.corrupt.Add(1)
		return entry{}, false
	}
	payload := raw[diskHeader : diskHeader+int(plen)]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(raw[diskHeader+int(plen):]) {
		c.corrupt.Add(1)
		return entry{}, false
	}
	return entry{data: payload, cost: time.Duration(cost)}, true
}

// writeDisk persists one entry atomically: header, payload and checksum
// written straight to a private tmp file in the final directory (no
// assembled second copy of the payload), then rename. Readers see either
// the old complete entry or the new complete entry, never a partial write;
// tmp names carry the pid and a sequence number so concurrent processes
// sharing a cache directory cannot collide.
func (c *Cache) writeDisk(k Key, data []byte, cost time.Duration) error {
	final := c.path(k)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	hdr := make([]byte, 0, diskHeader)
	hdr = append(hdr, diskMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(cost))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(data)))
	sum := sha256.Sum256(data)

	tmp := fmt.Sprintf("%s.tmp.%d.%d", final, os.Getpid(), c.tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, part := range [][]byte{hdr, data, sum[:]} {
		if _, err = f.Write(part); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
