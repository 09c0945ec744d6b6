// Fuzz target for the Alltoallv exchange and its link models. Arbitrary
// bytes decode into a group size, a payload-size matrix, a link
// configuration, a chunked-round count, a subset of ranks that post
// their rounds (SparseExchange.Post) while the rest run them, a subset
// of ranks whose sparse messages carry only their size (Msg.Len), and
// optionally a second group issuing an overlapping exchange on a shared
// pool; invariants:
//
//   - delivery: every rank receives exactly the bytes each source sent
//     it (the size alone, from a size-only source), absent entries stay
//     nil — whether the exchange moves in one Alltoallv, in chunked
//     Exchange rounds, or in sparse rounds with any subset of the ranks
//     posted;
//   - self-messages are never charged: with only self payloads the
//     clock stays at zero under every model;
//   - the shared pool charges exactly the exchange's cross volume once
//     (bisection-only runs finish at crossVol/BW, chunked or not), and
//     two overlapping exchanges on one shared pool serialize: the run
//     ends at (crossVol+crossVol2)/BW, never earlier (no
//     double-counting of the pool's bandwidth);
//   - traffic accounting matches the payload matrix, with a chunked
//     exchange counting one message per communicating pair, and a
//     size-only message charges what a payload of its size does: every
//     invariant above holds with any subset of the sources size-only.
//
// Run as `go test -fuzz=FuzzAlltoallv ./internal/mpp`; the seed corpus
// keeps it exercised as a plain test (CI runs a -fuzztime=10s smoke).
package mpp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
)

func FuzzAlltoallv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 0, 5})                                                              // 3 ranks, free link
	f.Add([]byte{1, 3, 0, 0, 200, 0})                                                            // self-only payloads
	f.Add([]byte{3, 2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})                                            // 4 ranks, bisection
	f.Add([]byte{3, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8})                                            // same, 3 chunked rounds
	f.Add([]byte{1, 1, 0, 9, 40, 40, 40, 40})                                                    // overlapping second group
	f.Add([]byte{3, 2, 3, 17, 9, 9, 9, 9, 9, 9, 9, 9})                                           // chunked + overlap + link
	f.Add([]byte{5, 3, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9})                                         // big group
	f.Add([]byte{3, 2, 2 | 0b1010<<2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}) // ranks 1 and 3 posted
	f.Add([]byte{5, 1, 3 | 0b111110<<2, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})               // all but rank 0 posted
	f.Add([]byte{3, 2, 1 | 0b1111<<2, 17, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})       // every rank drawn: rank 0 runs them

	// Size-only messages (Msg.Len). sizeMask and the link mode share
	// data[1] (mask data[1]>>2, mode data[1]%3), so each byte is picked
	// for both: 26 is mode 2 with ranks 1 and 2 size-only, 254 is mode 2
	// with every rank size-only.
	f.Add([]byte{3, 26, 2 | 0b1010<<2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) // ranks 1 and 2 size-only
	f.Add([]byte{5, 254, 3 | 0b100<<2, 17, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})            // every rank size-only, overlapped
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		size := int(data[0])%6 + 1
		mode := data[1] % 3          // 0 free, 1 bisection only, 2 per-process + bisection
		rounds := int(data[2])%4 + 1 // 1 = single Alltoallv, >1 = chunked Exchange
		// Bit r set: rank r posts its rounds. Any bit set moves the chunked
		// exchange to the sparse form; rank 0 always runs the rounds.
		postMask := int(data[2]>>2) &^ 1
		// Bit r set: rank r's sparse messages carry only their size.
		sizeMask := int(data[1] >> 2)
		overlap := data[3]%2 == 1  // second group exchanging on the same pool
		vol2 := int(data[3]) % 128 // second group's per-rank payload
		// sizes[src][dst]: payload length; 0 = nil (nothing sent).
		sizes := make([][]int, size)
		p := 4
		for src := range sizes {
			sizes[src] = make([]int, size)
			for dst := range sizes[src] {
				if p < len(data) {
					sizes[src][dst] = int(data[p]) % 64
					p++
				}
			}
		}
		var crossVol int64
		var crossMsgs int64
		for src := range sizes {
			for dst, n := range sizes[src] {
				if src != dst && n > 0 {
					crossVol += int64(n)
					crossMsgs++
				}
			}
		}
		if mode == 0 {
			overlap = false // no pool to contend for
		}
		var crossVol2 int64
		if overlap {
			crossVol2 = 2 * int64(vol2) // 2 ranks, vol2 each way
		}

		const bw = 1e6
		e := sim.NewEngine()
		g, join := Run(e, size, "f", func(pr *Proc) {
			got := make([][]byte, size)
			sized := 0 // bit src set: src's messages here carried only their size
			if rounds == 1 {
				recv := pr.Alltoallv(make2(sizes, pr.Rank()))
				for src := 0; src < size; src++ {
					if recv[src] != nil {
						got[src] = append([]byte(nil), recv[src]...)
					}
				}
			} else if postMask != 0 {
				ex := pr.NewSparseExchange()
				whole := make2(sizes, pr.Rank())
				chunk := func(k int) (send []Msg) {
					for dst, pl := range whole {
						if pl == nil {
							continue
						}
						part := pl[k*len(pl)/rounds : (k+1)*len(pl)/rounds]
						if sizeMask>>pr.Rank()&1 == 1 {
							send = append(send, Msg{Dst: dst, Round: k, Len: len(part)})
						} else {
							send = append(send, Msg{Dst: dst, Round: k, Data: part})
						}
					}
					return send
				}
				var recv []RecvMsg
				if postMask>>pr.Rank()&1 == 1 {
					var send []Msg
					for k := 0; k < rounds; k++ {
						send = append(send, chunk(k)...)
					}
					recv = ex.Post(send, rounds)
				} else {
					for k := 0; k < rounds; k++ {
						recv = append(recv, ex.Round(chunk(k))...)
					}
				}
				// Round order holds in either list; sources within a round
				// arrive in dispatch order.
				for k := 0; k < rounds; k++ {
					for _, m := range recv {
						if m.Round == k {
							if got[m.Src] == nil {
								got[m.Src] = []byte{}
							}
							got[m.Src] = append(got[m.Src], m.Data...)
							if m.Data == nil {
								got[m.Src] = append(got[m.Src], make([]byte, m.Len)...)
							}
						}
					}
				}
				sized = sizeMask
			} else {
				ex := pr.NewExchange()
				whole := make2(sizes, pr.Rank())
				for k := 0; k < rounds; k++ {
					send := make([][]byte, size)
					for dst, pl := range whole {
						if pl == nil {
							continue
						}
						send[dst] = pl[k*len(pl)/rounds : (k+1)*len(pl)/rounds]
					}
					recv := ex.Round(send)
					for src := 0; src < size; src++ {
						if recv[src] != nil {
							if got[src] == nil {
								got[src] = []byte{}
							}
							got[src] = append(got[src], recv[src]...)
						}
					}
				}
			}
			for src := 0; src < size; src++ {
				n := sizes[src][pr.Rank()]
				if n == 0 {
					if got[src] != nil {
						t.Errorf("rank %d: ghost payload from %d", pr.Rank(), src)
					}
					continue
				}
				want := make([]byte, n) // zeros, from a size-only source
				for i := range want {
					if sized>>src&1 == 0 {
						want[i] = byte(7*src + 3*pr.Rank() + i)
					}
				}
				if !bytes.Equal(got[src], want) {
					t.Errorf("rank %d: corrupted payload from %d", pr.Rank(), src)
				}
			}
		})
		var g2 *Group
		var join2 *sim.Group
		if overlap {
			g2, join2 = Run(e, 2, "f2", func(pr *Proc) {
				send := make([][]byte, 2)
				send[1-pr.Rank()] = make([]byte, vol2)
				pr.Alltoallv(send)
			})
		}
		switch mode {
		case 1:
			g.SetBisection(bw)
		case 2:
			g.SetLink(time.Microsecond, bw)
			g.SetBisection(bw)
		}
		if overlap {
			// Both groups contend for group 1's pool: their exchanges
			// must serialize on its timeline.
			g2.SetBisectionPool(g.bisection)
		}
		e.Go("join", func(sp *sim.Proc) {
			join.Wait(sp)
			if join2 != nil {
				join2.Wait(sp)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}

		if msgs, bytes := g.Traffic(); msgs != crossMsgs || bytes != crossVol {
			t.Fatalf("Traffic() = %d msgs / %d bytes, want %d / %d (rounds %d)",
				msgs, bytes, crossMsgs, crossVol, rounds)
		}
		total := crossVol + crossVol2
		switch {
		case total == 0:
			// Self-only (or silent) exchanges: no model may charge time.
			if e.Now() != 0 {
				t.Fatalf("mode %d: self-only exchange charged %v", mode, e.Now())
			}
		case mode == 0:
			if e.Now() != 0 {
				t.Fatalf("free link charged %v", e.Now())
			}
		case mode == 1:
			// Pool-only: the pool drains every exchange's volume exactly
			// once and overlapping exchanges serialize, so the run ends
			// when the summed volume has drained — chunked or not, one
			// group or two. Each reservation's duration conversion may
			// truncate below a nanosecond, so the chained end time may
			// trail the one-shot conversion by up to one ns per charge.
			want := time.Duration(float64(total) / bw * float64(time.Second))
			slack := time.Duration(rounds + 1)
			if e.Now() > want+slack || e.Now() < want-slack {
				t.Fatalf("bisection-only run ended at %v, want %v (±%dns; vol %d+%d, rounds %d)",
					e.Now(), want, slack, crossVol, crossVol2, rounds)
			}
		case mode == 2:
			// Composed: at least the summed pool charge (same per-charge
			// truncation slack), plus nonnegative per-process time.
			min := time.Duration(float64(total)/bw*float64(time.Second)) - time.Duration(rounds+1)
			if e.Now() < min {
				t.Fatalf("composed run ended at %v, below the pool charge %v", e.Now(), min)
			}
		}
	})
}

// make2 builds a rank's send payloads from the size matrix with the
// deterministic per-pair fill the delivery check expects.
func make2(sizes [][]int, rank int) [][]byte {
	send := make([][]byte, len(sizes))
	for dst, n := range sizes[rank] {
		if n == 0 {
			continue
		}
		pl := make([]byte, n)
		for i := range pl {
			pl[i] = byte(7*rank + 3*dst + i)
		}
		send[dst] = pl
	}
	return send
}
