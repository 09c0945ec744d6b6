// Package pfs implements the parallel file system: volumes spanning a
// device set, a directory of parallel files, and per-file metadata (the
// paper's §2–§3 concepts of organization, records, blocks and
// partitions).
//
// A file is created with a fixed size and organization; the volume
// allocates one contiguous extent per device and binds the file's layout
// (striped / partitioned / interleaved, per §4) over those extents.
// Access methods for the organizations live in package core; pfs only
// owns naming, metadata and space.
package pfs

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/blockio"
	"repro/internal/records"
)

// Organization identifies the paper's six standard parallel file
// organizations (§3, Figure 1).
type Organization int

const (
	// OrgSequential is type S: one process reads or writes the file in
	// order (possibly at very high rates).
	OrgSequential Organization = iota
	// OrgPartitioned is type PS: contiguous blocks, one partition per
	// process.
	OrgPartitioned
	// OrgInterleaved is type IS: partitions strided across the file
	// (wrapped storage).
	OrgInterleaved
	// OrgSelfScheduled is type SS: every request, from whatever
	// process, receives the next record exactly once.
	OrgSelfScheduled
	// OrgGlobalDirect is type GDA: any process accesses any record.
	OrgGlobalDirect
	// OrgPartitionedDirect is type PDA: random access within blocks
	// assigned to the process.
	OrgPartitionedDirect
)

// String implements fmt.Stringer with the paper's abbreviations.
func (o Organization) String() string {
	switch o {
	case OrgSequential:
		return "S"
	case OrgPartitioned:
		return "PS"
	case OrgInterleaved:
		return "IS"
	case OrgSelfScheduled:
		return "SS"
	case OrgGlobalDirect:
		return "GDA"
	case OrgPartitionedDirect:
		return "PDA"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// Category distinguishes the paper's two lifespan classes (§2).
type Category int

const (
	// Standard files outlive their programs and must present a
	// conventional global view.
	Standard Category = iota
	// Specialized files are private to one program (temporaries,
	// checkpoints, out-of-core storage).
	Specialized
)

// String implements fmt.Stringer.
func (c Category) String() string {
	if c == Specialized {
		return "specialized"
	}
	return "standard"
}

// Placement selects the physical strategy (§4) when creating a file.
type Placement int

const (
	// PlaceAuto picks the paper's recommendation for the organization:
	// striping for S/SS/GDA, partitioned for PS/PDA, interleaved for IS.
	PlaceAuto Placement = iota
	// PlaceStriped stripes fs blocks round-robin across devices.
	PlaceStriped
	// PlacePartitioned puts each partition's blocks on one device.
	PlacePartitioned
	// PlaceInterleaved puts each (cyclic) partition stream on one device.
	PlaceInterleaved
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceAuto:
		return "auto"
	case PlaceStriped:
		return "striped"
	case PlacePartitioned:
		return "partitioned"
	case PlaceInterleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Spec carries the creation parameters of a parallel file.
type Spec struct {
	Name     string
	Org      Organization
	Category Category

	RecordSize   int   // bytes per record (required)
	BlockRecords int   // records per paper-block; 0 = fill one fs block
	NumRecords   int64 // file length in records (fixed at creation)

	// Parts is the number of partitions (processes) for PS/IS/PDA.
	// Ignored (treated as 1) for S/SS/GDA unless explicitly set.
	Parts int
	// PartBlocks optionally fixes each partition's size in paper-blocks
	// (PS/PDA); when nil the blocks are split as evenly as possible.
	PartBlocks []int64

	// Placement optionally overrides the §4 default physical strategy.
	Placement Placement
	// StripeUnitFS sets the stripe unit in fs blocks for striped
	// placement; 0 = one paper-block (whole blocks round-robin). Use 1
	// for declustering.
	StripeUnitFS int64
	// Pack selects the on-device packing policy when several partitions
	// share a device (PS/IS with fewer devices than partitions).
	Pack blockio.Pack
}

// File is an entry in a volume's directory: metadata plus the bound
// logical-block Set. Access methods live in package core.
type File struct {
	spec   Spec
	mapper *records.Mapper
	set    *blockio.Set
	layout blockio.Layout
	// partFirstBlock[p] is the first paper-block of partition p
	// (len = parts+1; the final entry is NumBlocks).
	partFirstBlock []int64
}

// Spec returns the file's creation parameters (with defaults resolved).
func (f *File) Spec() Spec { return f.spec }

// Name reports the file name.
func (f *File) Name() string { return f.spec.Name }

// Mapper exposes the record/block framing.
func (f *File) Mapper() *records.Mapper { return f.mapper }

// Set exposes the logical-block I/O interface.
func (f *File) Set() *blockio.Set { return f.set }

// Layout exposes the physical layout.
func (f *File) Layout() blockio.Layout { return f.layout }

// Parts reports the number of partitions.
func (f *File) Parts() int { return len(f.partFirstBlock) - 1 }

// PartBlockRange reports the paper-block range [first, end) of
// partition p. For IS files the range is the cyclic class {first + k*Parts}
// and this reports (p, NumBlocks) bounds instead; use Org to interpret.
func (f *File) PartBlockRange(p int) (first, end int64) {
	return f.partFirstBlock[p], f.partFirstBlock[p+1]
}

// PartRecordRange reports the record range [first, end) of partition p
// for contiguous (PS/PDA) files.
func (f *File) PartRecordRange(p int) (first, end int64) {
	bFirst, bEnd := f.PartBlockRange(p)
	first = bFirst * int64(f.mapper.BlockRecords())
	end = bEnd * int64(f.mapper.BlockRecords())
	if end > f.mapper.NumRecords() {
		end = f.mapper.NumRecords()
	}
	if first > f.mapper.NumRecords() {
		first = f.mapper.NumRecords()
	}
	return first, end
}

// BlockOwner reports which partition owns paper-block b under the file's
// organization (contiguous ranges for PS/PDA, cyclic for IS; everything
// belongs to partition 0 for S/SS/GDA single-part files).
func (f *File) BlockOwner(b int64) int {
	switch f.spec.Org {
	case OrgInterleaved:
		return int(b % int64(f.Parts()))
	default:
		// Binary search the partition table.
		i := sort.Search(f.Parts(), func(i int) bool { return f.partFirstBlock[i+1] > b })
		if i >= f.Parts() {
			i = f.Parts() - 1
		}
		return i
	}
}

// FileGroup is an ordered set of files sharing one device array, opened
// together for collective access. It concatenates the members' fs-block
// spaces into one global enumeration — file i's blocks occupy the global
// indexes [Offset(i), Offset(i+1)) — which is the coordinate system the
// collective subsystem computes its union footprint and file domains in.
type FileGroup struct {
	files []*File
	offs  []int64 // offs[i] = global index of file i's block 0; len = files+1
}

// NewFileGroup forms a group from already-open files. The files must be
// distinct and their Sets must share one Store (one device array) — the
// condition under which cross-file physical merging (blockio.BatchVec)
// is meaningful.
func NewFileGroup(files ...*File) (*FileGroup, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("pfs: file group needs at least one file")
	}
	store := files[0].Set().Store()
	g := &FileGroup{files: files, offs: make([]int64, len(files)+1)}
	for i, f := range files {
		if f == nil {
			return nil, fmt.Errorf("pfs: file group member %d is nil", i)
		}
		if f.Set().Store() != store {
			return nil, fmt.Errorf("pfs: file group member %q is on a different device array", f.Name())
		}
		for _, prev := range files[:i] {
			if prev == f {
				return nil, fmt.Errorf("pfs: file group lists %q twice", f.Name())
			}
		}
		g.offs[i+1] = g.offs[i] + f.Mapper().TotalFSBlocks()
	}
	return g, nil
}

// OpenGroup looks up the named files and forms a FileGroup — the
// collective open of a file group.
func (v *Volume) OpenGroup(names ...string) (*FileGroup, error) {
	files := make([]*File, len(names))
	for i, n := range names {
		f, err := v.Lookup(n)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return NewFileGroup(files...)
}

// Len reports the number of files in the group.
func (g *FileGroup) Len() int { return len(g.files) }

// File returns member i.
func (g *FileGroup) File(i int) *File { return g.files[i] }

// Store returns the shared device array.
func (g *FileGroup) Store() blockio.Store { return g.files[0].Set().Store() }

// TotalFSBlocks reports the size of the concatenated block space.
func (g *FileGroup) TotalFSBlocks() int64 { return g.offs[len(g.files)] }

// Offset reports the global index of file i's block 0; Offset(Len()) is
// the total.
func (g *FileGroup) Offset(i int) int64 { return g.offs[i] }

// Locate maps a global block index to its (file, file-local block) pair.
func (g *FileGroup) Locate(global int64) (file int, block int64, err error) {
	if global < 0 || global >= g.TotalFSBlocks() {
		return 0, 0, fmt.Errorf("pfs: global block %d out of range [0,%d)", global, g.TotalFSBlocks())
	}
	file = sort.Search(len(g.files), func(i int) bool { return g.offs[i+1] > global })
	return file, global - g.offs[file], nil
}

// Volume is a parallel file system instance over a Store.
type Volume struct {
	store blockio.Store
	next  []int64 // per-device allocation cursor (physical blocks)
	files map[string]*File
	order []string // creation order (for persistence replay)
}

// NewVolume formats a volume over the store.
func NewVolume(store blockio.Store) *Volume {
	return &Volume{
		store: store,
		next:  make([]int64, store.Devices()),
		files: make(map[string]*File),
	}
}

// CreationOrder lists live files in the order they were created
// (removed files excluded): the order a volume image records them in,
// each with its resolved Spec and extent bases, and Restore reloads them.
func (v *Volume) CreationOrder() []string { return slices.Clone(v.order) }

// Store exposes the underlying store.
func (v *Volume) Store() blockio.Store { return v.store }

// Devices reports the number of data devices.
func (v *Volume) Devices() int { return v.store.Devices() }

// Files lists the directory in name order.
func (v *Volume) Files() []string {
	names := make([]string, 0, len(v.files))
	for n := range v.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named file.
func (v *Volume) Lookup(name string) (*File, error) {
	f, ok := v.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: file %q not found", name)
	}
	return f, nil
}

// Remove deletes the directory entry. Volumes are arena-allocated: the
// extents of the volume's most recent allocation — a file whose extents
// end at the allocation cursor on every device — are given back (the
// cursors return to its bases, so a failed create-and-copy leaves the
// volume as it found it); any other file's extents stay allocated. The
// blocks are not erased: a later file on them reads the removed file's
// bytes until it writes them.
func (v *Volume) Remove(name string) error {
	f, ok := v.files[name]
	if !ok {
		return fmt.Errorf("pfs: file %q not found", name)
	}
	need := blockio.PerDevice(f.layout, f.mapper.TotalFSBlocks())
	last := true
	for dev, n := range need {
		last = last && f.set.Base(dev)+n == v.next[dev]
	}
	if last {
		for dev := range need {
			v.next[dev] = f.set.Base(dev)
		}
	}
	delete(v.files, name)
	v.order = slices.DeleteFunc(v.order, func(n string) bool { return n == name })
	return nil
}

// Used reports the allocated blocks per device.
func (v *Volume) Used() []int64 {
	out := make([]int64, len(v.next))
	copy(out, v.next)
	return out
}

// Free reports the unallocated blocks per device.
func (v *Volume) Free() []int64 {
	out := make([]int64, len(v.next))
	for i, used := range v.next {
		out[i] = v.store.Blocks() - used
	}
	return out
}

// splitEven splits total into n parts differing by at most 1.
func splitEven(total int64, n int) []int64 {
	out := make([]int64, n)
	base := total / int64(n)
	rem := total % int64(n)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// resolveSpec fills defaults and validates a spec.
func (v *Volume) resolveSpec(spec *Spec) error {
	if spec.Name == "" {
		return fmt.Errorf("pfs: file needs a name")
	}
	if _, exists := v.files[spec.Name]; exists {
		return fmt.Errorf("pfs: file %q already exists", spec.Name)
	}
	if spec.RecordSize <= 0 {
		return fmt.Errorf("pfs: %q: record size %d", spec.Name, spec.RecordSize)
	}
	if spec.NumRecords <= 0 {
		return fmt.Errorf("pfs: %q: file needs records, got %d", spec.Name, spec.NumRecords)
	}
	fsbs := v.store.BlockSize()
	if spec.BlockRecords == 0 {
		spec.BlockRecords = fsbs / spec.RecordSize
		if spec.BlockRecords < 1 {
			spec.BlockRecords = 1
		}
	}
	if spec.BlockRecords < 0 {
		return fmt.Errorf("pfs: %q: negative block records", spec.Name)
	}
	switch spec.Org {
	case OrgPartitioned, OrgInterleaved, OrgPartitionedDirect:
		if spec.Parts <= 0 {
			return fmt.Errorf("pfs: %q: organization %s needs Parts > 0", spec.Name, spec.Org)
		}
	default:
		if spec.Parts <= 0 {
			spec.Parts = 1
		}
	}
	if spec.Placement == PlaceAuto {
		switch spec.Org {
		case OrgPartitioned, OrgPartitionedDirect:
			spec.Placement = PlacePartitioned
		case OrgInterleaved:
			spec.Placement = PlaceInterleaved
		default:
			spec.Placement = PlaceStriped
		}
	}
	return nil
}

// Create allocates and registers a new parallel file.
func (v *Volume) Create(spec Spec) (*File, error) {
	return v.create(spec, nil)
}

// Restore registers a file at explicit per-device extent bases — the
// persistence path (volume images record each file's bases so removals
// and allocation history need not be replayed). The allocation cursors
// advance past the restored extents.
func (v *Volume) Restore(spec Spec, bases []int64) (*File, error) {
	if len(bases) != v.store.Devices() {
		return nil, fmt.Errorf("pfs: %q: %d bases for %d devices", spec.Name, len(bases), v.store.Devices())
	}
	for dev, b := range bases {
		if b < 0 {
			return nil, fmt.Errorf("pfs: %q: negative extent base %d on device %d", spec.Name, b, dev)
		}
	}
	return v.create(spec, bases)
}

// create implements Create/Restore; fixedBase non-nil pins the extents.
func (v *Volume) create(spec Spec, fixedBase []int64) (*File, error) {
	if err := v.resolveSpec(&spec); err != nil {
		return nil, err
	}
	mapper, err := records.NewMapper(spec.RecordSize, spec.BlockRecords, v.store.BlockSize(), spec.NumRecords)
	if err != nil {
		return nil, fmt.Errorf("pfs: %q: %w", spec.Name, err)
	}
	nBlocks := mapper.NumBlocks()
	fsPer := mapper.FSPerBlock()
	devs := v.store.Devices()
	// Refuse a file the drives cannot hold before anything maps its
	// blocks, comparing without forming its fs-block count.
	if capacity := int64(devs) * v.store.Blocks(); nBlocks > capacity/fsPer {
		return nil, fmt.Errorf("pfs: %q: %d blocks of %d fs blocks each exceed the volume's %d fs blocks",
			spec.Name, nBlocks, fsPer, capacity)
	}
	totalFS := mapper.TotalFSBlocks()

	// Partition table in paper-blocks.
	partBlocks := spec.PartBlocks
	if partBlocks == nil {
		partBlocks = splitEven(nBlocks, spec.Parts)
	}
	if len(partBlocks) != spec.Parts {
		return nil, fmt.Errorf("pfs: %q: %d partition sizes for %d parts", spec.Name, len(partBlocks), spec.Parts)
	}
	var sum int64
	partFirst := make([]int64, spec.Parts+1)
	for i, n := range partBlocks {
		if n < 0 {
			return nil, fmt.Errorf("pfs: %q: negative partition size", spec.Name)
		}
		sum += n
		partFirst[i+1] = sum
	}
	if sum != nBlocks {
		return nil, fmt.Errorf("pfs: %q: partition sizes total %d blocks, file has %d", spec.Name, sum, nBlocks)
	}

	// Physical layout.
	var layout blockio.Layout
	switch spec.Placement {
	case PlaceStriped:
		unit := spec.StripeUnitFS
		if unit <= 0 {
			unit = fsPer
		}
		layout = blockio.NewStriped(devs, unit)
	case PlacePartitioned:
		partFS := make([]int64, len(partBlocks))
		for i, n := range partBlocks {
			partFS[i] = n * fsPer
		}
		l, err := blockio.NewPartitioned(devs, partFS, fsPer, spec.Pack)
		if err != nil {
			return nil, fmt.Errorf("pfs: %q: %w", spec.Name, err)
		}
		layout = l
	case PlaceInterleaved:
		l, err := blockio.NewInterleaved(devs, spec.Parts, fsPer, totalFS, spec.Pack)
		if err != nil {
			return nil, fmt.Errorf("pfs: %q: %w", spec.Name, err)
		}
		layout = l
	default:
		return nil, fmt.Errorf("pfs: %q: unknown placement %v", spec.Name, spec.Placement)
	}

	// Allocate per-device extents (or pin them when restoring).
	need := blockio.PerDevice(layout, totalFS)
	base := make([]int64, layout.Devices())
	if fixedBase != nil {
		for dev, n := range need {
			base[dev] = fixedBase[dev]
			if base[dev]+n > v.store.Blocks() {
				return nil, fmt.Errorf("pfs: %q: restored extent exceeds device %d", spec.Name, dev)
			}
			if end := base[dev] + n; end > v.next[dev] {
				v.next[dev] = end
			}
		}
	} else {
		for dev, n := range need {
			if v.next[dev]+n > v.store.Blocks() {
				return nil, fmt.Errorf("pfs: %q: device %d full (%d + %d > %d blocks)",
					spec.Name, dev, v.next[dev], n, v.store.Blocks())
			}
		}
		for dev, n := range need {
			base[dev] = v.next[dev]
			v.next[dev] += n
		}
	}

	set, err := blockio.NewSet(v.store, layout, base, totalFS)
	if err != nil {
		return nil, fmt.Errorf("pfs: %q: %w", spec.Name, err)
	}
	spec.PartBlocks = partBlocks // store the resolved partition table
	f := &File{
		spec:           spec,
		mapper:         mapper,
		set:            set,
		layout:         layout,
		partFirstBlock: partFirst,
	}
	v.files[spec.Name] = f
	v.order = append(v.order, spec.Name)
	return f, nil
}
