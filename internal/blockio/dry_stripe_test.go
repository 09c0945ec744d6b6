package blockio_test

import (
	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/stripe"
)

// The redundant stores FuzzDryIssue prices are package stripe's own,
// which imports blockio: only an external test may import it.
func init() {
	blockio.SetRedundant(func(disks []*device.Disk, mirror, rotate bool) (blockio.Store, error) {
		if mirror {
			return stripe.NewMirror(disks[:len(disks)/2], disks[len(disks)/2:])
		}
		return stripe.NewParity(disks, rotate)
	})
}
