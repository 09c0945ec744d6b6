package pfs

import (
	"fmt"
	"sort"

	"repro/internal/blockio"
)

// CheckReport is the result of a volume consistency check.
type CheckReport struct {
	Files    int
	Extents  int // per-device extents examined
	Problems []string
}

// OK reports whether the check found no problems.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// String summarizes the report.
func (r CheckReport) String() string {
	if r.OK() {
		return fmt.Sprintf("pfs: volume consistent: %d files, %d extents", r.Files, r.Extents)
	}
	s := fmt.Sprintf("pfs: volume INCONSISTENT: %d problems\n", len(r.Problems))
	for _, p := range r.Problems {
		s += "  - " + p + "\n"
	}
	return s
}

// extent is a per-device allocation claim for overlap checking.
type extent struct {
	file  string
	dev   int
	first int64
	end   int64
}

// Check verifies the volume's structural invariants — the fsck of the
// parallel file system:
//
//   - no extent starts below block 0 or exceeds the device capacity;
//   - no two files' extents overlap on any device;
//   - partition tables are monotone and cover each file exactly.
func (v *Volume) Check() CheckReport {
	var rep CheckReport
	var extents []extent
	rep.Files = len(v.files)

	names := v.Files()
	for _, name := range names {
		f := v.files[name]
		m := f.mapper

		// Partition table invariants.
		if f.partFirstBlock[0] != 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: partition table does not start at block 0", name))
		}
		for i := 0; i < len(f.partFirstBlock)-1; i++ {
			if f.partFirstBlock[i] > f.partFirstBlock[i+1] {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: partition table not monotone at %d", name, i))
			}
		}
		if last := f.partFirstBlock[len(f.partFirstBlock)-1]; last != m.NumBlocks() {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: partition table ends at block %d, file has %d", name, last, m.NumBlocks()))
		}

		// Per-device extent bounds from the layout.
		for dev, n := range blockio.PerDevice(f.layout, m.TotalFSBlocks()) {
			if n == 0 {
				continue
			}
			first := f.set.Base(dev)
			end := first + n
			if first < 0 {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("%s: extent [%d,%d) on device %d starts below block 0", name, first, end, dev))
			}
			if end > v.store.Blocks() {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("%s: extent [%d,%d) exceeds device %d capacity %d", name, first, end, dev, v.store.Blocks()))
			}
			extents = append(extents, extent{file: name, dev: dev, first: first, end: end})
		}
	}

	// Cross-file overlap per device.
	sort.Slice(extents, func(i, j int) bool {
		if extents[i].dev != extents[j].dev {
			return extents[i].dev < extents[j].dev
		}
		return extents[i].first < extents[j].first
	})
	rep.Extents = len(extents)
	for i := 1; i < len(extents); i++ {
		a, b := extents[i-1], extents[i]
		if a.dev == b.dev && b.first < a.end {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("device %d: %s [%d,%d) overlaps %s [%d,%d)", a.dev, a.file, a.first, a.end, b.file, b.first, b.end))
		}
	}
	return rep
}
