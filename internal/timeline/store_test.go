package timeline

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// What the tests read of the event store, so that none of them depends on
// how it is laid out.

// eventCount is the number of events held.
func (r *Recorder) eventCount() int { return r.ev.n }

// eventCap is the number of events the store has room allocated for.
func (r *Recorder) eventCap() int {
	n := 0
	for _, blk := range r.ev.blocks {
		n += cap(blk)
	}
	return n
}

// eachEvent visits the held events in recording order.
func (r *Recorder) eachEvent(visit func(i int, ev *event)) {
	i := 0
	for _, blk := range r.ev.blocks {
		for j := range blk {
			visit(i, &blk[j])
			i++
		}
	}
}

// TestEventStoreBlockBoundaries drives the two recording paths (closeRun,
// instant) across every block edge and holds the store to a plain slice
// under the same budget rule: same events in the same order, same drop
// count, same slice count, none lost in the export, and no more room
// allocated than one block beyond what is held.
func TestEventStoreBlockBoundaries(t *testing.T) {
	threeBlocks := evFirstBlock + evBlock + 5
	for _, n := range []int{0, 1, evFirstBlock - 1, evFirstBlock, evFirstBlock + 1, evFirstBlock + evBlock, threeBlocks} {
		for _, maxEv := range []int{threeBlocks + 1, n - 1, 16} {
			if maxEv < 0 {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/max=%d", n, maxEv), func(t *testing.T) {
				m := sim.NewMachine(topo.SingleCore(), sim.NewFIFO(), sim.Options{})
				r := Attach(m)
				r.maxEv = maxEv
				th := &sim.Thread{ID: 3, Name: "w"}
				r.st = []tstate{{}, {}, {th: th}}
				var ref []event
				var refDropped uint64
				refSlices := 0
				for i := 0; i < n; i++ {
					var want event
					ts := int64(1000 * i)
					switch i % 3 {
					case 0:
						st := &tstate{th: th, core: int32(i % 7), startNS: ts, pendWaitNS: int64(i), pendFromWake: i%2 == 0}
						r.closeRun(st, ts+500)
						want = event{kind: evSlice, tid: 3, core: int32(i % 7), other: -1, t: ts, dur: 500, wait: int64(i), fromWake: i%2 == 0}
					case 1:
						r.instant(evWake, 3, 0, -1, ts)
						want = event{kind: evWake, tid: 3, core: 0, other: -1, t: ts}
					case 2:
						r.instant(evMigrate, 3, 0, int32(i), ts)
						want = event{kind: evMigrate, tid: 3, core: 0, other: int32(i), t: ts}
					}
					if len(ref) < maxEv {
						ref = append(ref, want)
						if want.kind == evSlice {
							refSlices++
						}
					} else {
						refDropped++
					}
				}
				if r.eventCount() != len(ref) || r.dropped != refDropped || r.ev.slices != refSlices {
					t.Fatalf("held %d dropped %d slices %d, reference %d / %d / %d",
						r.eventCount(), r.dropped, r.ev.slices, len(ref), refDropped, refSlices)
				}
				visited := 0
				r.eachEvent(func(i int, ev *event) {
					if i != visited || *ev != ref[i] {
						t.Fatalf("event %d (visit %d) = %+v, reference %+v", i, visited, *ev, ref[i])
					}
					visited++
				})
				if visited != len(ref) {
					t.Fatalf("visited %d events, reference holds %d", visited, len(ref))
				}
				if c := r.eventCap(); c > len(ref)+evBlock || (len(ref) == 0) != (c == 0) {
					t.Fatalf("room for %d events allocated to hold %d", c, len(ref))
				}
				tr, err := DecodeTrace(r.AppendPerfetto(nil, nil))
				if err != nil {
					t.Fatal(err)
				}
				exported := 0
				for _, e := range tr.Events {
					if e.Ph == "X" || e.Ph == "i" {
						exported++
					}
				}
				if exported != len(ref) {
					t.Fatalf("export carries %d events, store holds %d", exported, len(ref))
				}
			})
		}
	}
}
