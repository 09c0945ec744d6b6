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

// appendRun adds a span to dst, merging with the previous run when it is
// both logically and physically adjacent (e.g. consecutive stripe units
// on a single-device layout, or consecutive granules of an unshared
// partition).
func appendRun(dst []Run, dev int, pblock, b, n int64) []Run {
	if n <= 0 {
		return dst
	}
	if k := len(dst) - 1; k >= 0 {
		if last := &dst[k]; last.Dev == dev && last.PBlock+last.N == pblock && last.B+last.N == b {
			last.N += n
			return dst
		}
	}
	return append(dst, Run{Dev: dev, PBlock: pblock, B: b, N: n})
}

// MapRun implements Layout one stripe unit at a time: within a unit
// blocks are physically contiguous, and adjacent units merge when the
// layout has a single device.
func (s *Striped) MapRun(dst []Run, b, n int64) []Run {
	for n > 0 {
		seg := s.Unit - b%s.Unit
		if seg > n {
			seg = n
		}
		dev, pb := s.Map(b)
		dst = appendRun(dst, dev, pb, b, seg)
		b += seg
		n -= seg
	}
	return dst
}

// perDevice is the closed-form extent computation for PerDevice: device
// dev holds stripe units dev, dev+D, …, each Unit blocks except a
// possibly short final unit.
func (s *Striped) perDevice(need []int64, total int64) {
	nUnits := (total + s.Unit - 1) / s.Unit
	lastLen := total - (nUnits-1)*s.Unit
	for dev := int64(0); dev < int64(s.D) && dev < nUnits; dev++ {
		c := (nUnits-1-dev)/int64(s.D) + 1 // units on this device
		h := s.Unit
		if dev+(c-1)*int64(s.D) == nUnits-1 {
			h = lastLen
		}
		need[dev] = (c-1)*s.Unit + h
	}
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

// perDevice is the closed-form extent computation for PerDevice: each
// partition's topmost physical block follows directly from its size,
// share count and rank.
func (p *Partitioned) perDevice(need []int64, total int64) {
	for i := 0; i < p.Parts(); i++ {
		start, end := p.starts[i], p.starts[i+1]
		if start >= total {
			break
		}
		if end > total {
			end = total
		}
		size := end - start
		if size == 0 {
			continue
		}
		dev := i % p.D
		var top int64
		if p.Policy == PackInterleaved {
			k, rk := int64(p.shareK[i]), int64(p.rank[i])
			lastIdx := (size - 1) / p.Unit
			top = (lastIdx*k+rk)*p.Unit + (size - lastIdx*p.Unit)
		} else {
			top = p.base[i] + size
		}
		if top > need[dev] {
			need[dev] = top
		}
	}
}

// MapRun implements Layout one interleave group at a time: a group's
// Unit blocks are physically contiguous on its owner's device.
func (il *Interleaved) MapRun(dst []Run, b, n int64) []Run {
	for n > 0 {
		seg := il.Unit - b%il.Unit
		if seg > n {
			seg = n
		}
		dev, pb := il.Map(b)
		dst = appendRun(dst, dev, pb, b, seg)
		b += seg
		n -= seg
	}
	return dst
}

// perDevice is the closed-form extent computation for PerDevice: stream
// q owns groups q, q+P, … below ceil(total/Unit); its topmost physical
// block follows from its group count, the height of its final group and
// its packing position on the device.
func (il *Interleaved) perDevice(need []int64, total int64) {
	unit := il.Unit
	g := (total + unit - 1) / unit // groups covering [0, total)
	hLast := total - (g-1)*unit
	for q := int64(0); q < int64(il.P) && q < g; q++ {
		c := (g-1-q)/int64(il.P) + 1 // groups owned by stream q
		dev := int(q) % il.D
		h := unit
		if q+(c-1)*int64(il.P) == g-1 {
			h = hLast
		}
		var top int64
		if il.Policy == PackContiguous {
			var base int64
			for q2 := int64(dev); q2 < q; q2 += int64(il.D) {
				base += il.streamGroups(int(q2)) * unit
			}
			top = base + (c-1)*unit + h
		} else {
			k := int64(il.procsOnDev(dev))
			top = ((c-1)*k+q/int64(il.D))*unit + h
		}
		if top > need[dev] {
			need[dev] = top
		}
	}
}
