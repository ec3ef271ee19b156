package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(s string) Key { return NewHasher("test").Str(s).Sum() }

func TestMemoryCacheRoundTrip(t *testing.T) {
	c, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("a")
	if _, _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("payload"), 3*time.Second)
	data, cost, ok := c.Get(k)
	if !ok || string(data) != "payload" || cost != 3*time.Second {
		t.Fatalf("got (%q, %v, %v), want (payload, 3s, true)", data, cost, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 store", st)
	}
	if st.WallSaved != 3*time.Second {
		t.Fatalf("WallSaved = %v, want 3s", st.WallSaved)
	}
}

func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	k := testKey("persist")

	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(k, []byte("result-bytes"), 250*time.Millisecond)

	// A fresh instance (fresh process, conceptually) must hit from disk,
	// including the recorded simulate cost.
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, cost, ok := c2.Get(k)
	if !ok || string(data) != "result-bytes" || cost != 250*time.Millisecond {
		t.Fatalf("disk round trip: got (%q, %v, %v)", data, cost, ok)
	}
	// And promote to memory: a second Get must not require the file.
	if err := os.Remove(c2.path(k)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry lost after disk file removed")
	}
}

// TestDiskEntryLayout pins the file writeDisk leaves behind — magic, cost,
// length, payload, sha256(payload), written piecewise — and that the tmp
// file it was written through is gone.
func TestDiskEntryLayout(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, payload := testKey("layout"), []byte("result-bytes")
	c.Put(k, payload, 250*time.Millisecond)

	want := []byte(diskMagic)
	want = binary.LittleEndian.AppendUint64(want, uint64(250*time.Millisecond))
	want = binary.LittleEndian.AppendUint64(want, uint64(len(payload)))
	want = append(want, payload...)
	sum := sha256.Sum256(payload)
	want = append(want, sum[:]...)
	got, err := os.ReadFile(c.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("on-disk entry:\n got %q\nwant %q", got, want)
	}
	files, err := os.ReadDir(filepath.Dir(c.path(k)))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("shard directory holds %d files, want the entry alone", len(files))
	}
	if st := c.Stats(); st.StoreErrs != 0 {
		t.Fatalf("store errors: %d", st.StoreErrs)
	}
}

// corruptions enumerates the damage modes an on-disk entry must survive
// (as misses): each mutator receives the valid file bytes and returns the
// damaged replacement.
var corruptions = map[string]func([]byte) []byte{
	"empty":           func(b []byte) []byte { return nil },
	"truncated-head":  func(b []byte) []byte { return b[:diskHeader/2] },
	"truncated-tail":  func(b []byte) []byte { return b[:len(b)-1] },
	"bad-magic":       func(b []byte) []byte { o := append([]byte(nil), b...); o[0] ^= 0xff; return o },
	"bad-length":      func(b []byte) []byte { o := append([]byte(nil), b...); o[len(diskMagic)+8] ^= 0x01; return o },
	"flipped-payload": func(b []byte) []byte { o := append([]byte(nil), b...); o[diskHeader] ^= 0x01; return o },
	"flipped-sum":     func(b []byte) []byte { o := append([]byte(nil), b...); o[len(o)-1] ^= 0x01; return o },
}

func TestDiskCacheCorruptEntriesAreMisses(t *testing.T) {
	for name, damage := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			k := testKey("victim")
			c, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.Put(k, []byte("precious"), time.Second)
			path := c.path(k)
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(valid), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh instance sees only the damaged file: must miss.
			fresh, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := fresh.Get(k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			// Put repairs; the next instance hits the repaired bytes.
			fresh.Put(k, []byte("precious"), time.Second)
			again, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			data, _, ok := again.Get(k)
			if !ok || string(data) != "precious" {
				t.Fatalf("repair failed: got (%q, %v)", data, ok)
			}
		})
	}
}

func TestDiskCacheIgnoresLeftoverTmpFiles(t *testing.T) {
	// A crashed writer leaves a *.tmp.* file behind; it must never be
	// read, and the entry must still be storable and retrievable.
	dir := t.TempDir()
	k := testKey("tmpvictim")
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	final := c.path(k)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(final+".tmp.999.1", []byte("partial gar"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(k); ok {
		t.Fatal("tmp leftover served as a hit")
	}
	c.Put(k, []byte("good"), time.Second)
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, ok := c2.Get(k); !ok || string(data) != "good" {
		t.Fatalf("entry beside tmp leftover: got (%q, %v)", data, ok)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Hammer one shared cache from many goroutines over a small key space:
	// the race detector validates the locking, and every Get must return
	// either a miss or the exact stored payload.
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys, rounds = 8, 5, 50
	payload := func(ki int) []byte { return bytes.Repeat([]byte{byte(ki)}, 64) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ki := (w + r) % keys
				k := testKey(fmt.Sprintf("k%d", ki))
				if data, _, ok := c.Get(k); ok {
					if !bytes.Equal(data, payload(ki)) {
						t.Errorf("key %d returned wrong payload", ki)
						return
					}
				} else {
					c.Put(k, payload(ki), time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Stores == 0 || st.Hits == 0 {
		t.Fatalf("expected both stores and hits, got %+v", st)
	}
}
