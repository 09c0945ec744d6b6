// Extents (multi-block runs): the contiguity iterator over layouts.
//
// The device model charges every request a fixed overhead plus seek and
// rotational latency, so a sequential scan issued block-at-a-time pays
// those costs once per block. MapRun decomposes a logical block range
// into maximal physically contiguous per-device runs in closed form; the
// map stage of the transfer pipeline (mapRuns, batch.go) calls it once
// per descriptor segment and merges what it yields, and each merged run
// is issued as a single coalesced store request. A run of N contiguous
// blocks then costs one overhead + one seek + rotation + N transfers
// instead of N of each.

package blockio

// Run is a physically contiguous span of a layout: N logical blocks map
// to the physical blocks [PBlock, PBlock+N) of device Dev. It is the one
// run type of the package: what layouts yield, what the mapper merges and
// what the issue loop transfers.
//
// A run produced by Layout.MapRun is logically contiguous too — its
// blocks are [B, B+N) — and has no Segs. A gather run produced by the
// mapper (Set.MapVec, BatchVec.Plan) may cover logically scattered
// blocks: Segs then lists where each consecutive slice of the run's
// blocks lives in the caller's buffer, and B records only the run's
// first logical block (for diagnostics).
type Run struct {
	Dev int // device index
	// PBlock is the first physical block: relative to the file's extent
	// in what Layout.MapRun and Set.MapVec report, absolute (extent base
	// added) in the runs a transfer issues.
	PBlock int64
	B      int64 // first logical block
	N      int64 // length in blocks
	Segs   []Seg // buffer scatter/gather map; nil for plain MapRun runs
}

// appendRun adds a span of n ≥ 1 blocks to dst, merging with the
// previous run when it is both logically and physically adjacent (e.g.
// consecutive stripe units on a single-device layout, or consecutive
// granules of an unshared partition).
func appendRun(dst []Run, dev int, pblock, b, n int64) []Run {
	if k := len(dst) - 1; k >= 0 {
		if last := &dst[k]; last.Dev == dev && last.PBlock+last.N == pblock && last.B+last.N == b {
			last.N += n
			return dst
		}
	}
	// Filled in place: appending the literal would build it on the stack
	// and copy it out, a stall that costs more than the mapping.
	dst = append(dst, Run{})
	r := &dst[len(dst)-1]
	r.Dev, r.PBlock, r.B, r.N = dev, pblock, b, n
	return dst
}

// MapRun implements Layout one stripe unit at a time: within a unit
// blocks are physically contiguous, unit u+1 follows unit u on the next
// device, and adjacent units merge when the layout has a single device.
func (s *Striped) MapRun(dst []Run, b, n int64) []Run {
	stripe, off := b/s.Unit, b%s.Unit
	dev, row := int(stripe%int64(s.D)), stripe/int64(s.D)
	for n > 0 {
		seg := min(s.Unit-off, n)
		dst = appendRun(dst, dev, row*s.Unit+off, b, seg)
		b, n, off = b+seg, n-seg, 0
		if dev++; dev == s.D {
			dev, row = 0, row+1
		}
	}
	return dst
}

// MapRun implements Layout one partition span at a time; under
// PackContiguous a whole within-partition span is one run, under
// PackInterleaved runs are the partition's Unit-sized granules.
func (p *Partitioned) MapRun(dst []Run, b, n int64) []Run {
	for n > 0 {
		part := p.PartOf(b)
		within := b - p.starts[part]
		seg := p.starts[part+1] - b
		if seg > n {
			seg = n
		}
		dev := part % p.D
		if p.Policy != PackInterleaved {
			dst = appendRun(dst, dev, p.base[part]+within, b, seg)
			b += seg
			n -= seg
			continue
		}
		k, rk := int64(p.shareK[part]), int64(p.rank[part])
		for seg > 0 {
			g := p.Unit - within%p.Unit
			if g > seg {
				g = seg
			}
			pblock := ((within/p.Unit)*k+rk)*p.Unit + within%p.Unit
			dst = appendRun(dst, dev, pblock, b, g)
			b += g
			within += g
			seg -= g
			n -= g
		}
	}
	return dst
}

// MapRun implements Layout one interleave group at a time: a group's
// Unit blocks are physically contiguous on its owner's device, and group
// g+1 is the next stream's (the first stream's next round after the
// last stream's).
func (il *Interleaved) MapRun(dst []Run, b, n int64) []Run {
	group, off := b/il.Unit, b%il.Unit
	q, round := int(group%int64(il.P)), group/int64(il.P)
	for n > 0 {
		seg := min(il.Unit-off, n)
		dev, pb := il.place(q, round)
		dst = appendRun(dst, dev, pb+off, b, seg)
		b, n, off = b+seg, n-seg, 0
		if q++; q == il.P {
			q, round = 0, round+1
		}
	}
	return dst
}
