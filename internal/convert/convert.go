// Package convert implements the third of the paper's §5 remedies for
// the view-mismatch problem ("a file created with a PS organization needs
// to be read later with an IS format"): convert the file into a second
// file with the desired organization and placement ("could be expensive
// for large files"). The other two are core's stream readers: (1) an
// alternate view over the existing layout is core.OpenInterleavedReader
// on a PS file, or core.OpenPartReader or core.OpenBlockRangeReader on
// an IS one, accepting that the stride fights the placement; (2) the
// global fallback is core.OpenReader.
package convert

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Copy streams every record of src into dst (both must share record size
// and count), using sequential views with read-ahead on both sides —
// remedy (3). It returns the records copied.
func Copy(ctx sim.Context, src, dst *pfs.File, opts core.Options) (int64, error) {
	if src.Mapper().RecordSize() != dst.Mapper().RecordSize() {
		return 0, fmt.Errorf("convert: record sizes differ (%d vs %d)",
			src.Mapper().RecordSize(), dst.Mapper().RecordSize())
	}
	if src.Mapper().NumRecords() != dst.Mapper().NumRecords() {
		return 0, fmt.Errorf("convert: record counts differ (%d vs %d)",
			src.Mapper().NumRecords(), dst.Mapper().NumRecords())
	}
	r, err := core.OpenReader(src, opts)
	if err != nil {
		return 0, err
	}
	defer r.Close(ctx)
	w, err := core.OpenWriter(dst, opts)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		data, _, err := r.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close(ctx)
			return n, err
		}
		if _, err := w.WriteRecord(ctx, data); err != nil {
			w.Close(ctx)
			return n, err
		}
		n++
	}
	return n, w.Close(ctx)
}

// ToOrganization creates a sibling of src named newName with the target
// organization/placement and copies src into it — the full remedy (3)
// workflow. The new spec inherits src's framing. When the copy fails the
// sibling is removed again, so a retry under the same name can succeed.
func ToOrganization(ctx sim.Context, vol *pfs.Volume, src *pfs.File, newName string,
	org pfs.Organization, parts int, opts core.Options) (*pfs.File, error) {
	spec := src.Spec()
	spec.Name = newName
	spec.Org = org
	spec.Parts = parts
	spec.PartBlocks = nil
	spec.Placement = pfs.PlaceAuto
	dst, err := vol.Create(spec)
	if err != nil {
		return nil, err
	}
	if _, err := Copy(ctx, src, dst, opts); err != nil {
		return nil, errors.Join(err, vol.Remove(newName))
	}
	return dst, nil
}
