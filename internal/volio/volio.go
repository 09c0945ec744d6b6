// Package volio persists volumes to host directories and back — the
// paper's §2 requirement that standard parallel files "appear
// conventional to the system, or at least have transparent mechanisms to
// transform them into a conventional appearance". A saved volume is a
// set of ordinary host files (one metadata file plus one sparse image
// per simulated device) that cmd/parioctl can inspect, convert and cat.
package volio

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// imageFile is the persisted form of one parallel file.
type imageFile struct {
	Spec  pfs.Spec
	Bases []int64
}

// imageMeta is the persisted volume header.
type imageMeta struct {
	Devices  int
	Geometry device.Geometry
	Files    []imageFile
}

const metaName = "volume.gob"

// Save writes the volume (metadata plus every device's contents) to dir,
// creating it if needed. The disks must be the volume's backing devices
// in order.
func Save(dir string, disks []*device.Disk, vol *pfs.Volume) error {
	if len(disks) != vol.Devices() {
		return fmt.Errorf("volio: %d disks for %d-device volume", len(disks), vol.Devices())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := imageMeta{Devices: len(disks), Geometry: disks[0].Geometry()}
	for _, name := range vol.CreationOrder() {
		f, err := vol.Lookup(name)
		if err != nil {
			return err
		}
		bases := make([]int64, f.Layout().Devices())
		for dev := range bases {
			bases[dev] = f.Set().Base(dev)
		}
		meta.Files = append(meta.Files, imageFile{Spec: f.Spec(), Bases: bases})
	}
	mf, err := os.Create(filepath.Join(dir, metaName))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(mf).Encode(meta); err != nil {
		mf.Close()
		return fmt.Errorf("volio: encode metadata: %w", err)
	}
	if err := mf.Close(); err != nil {
		return err
	}
	for i, d := range disks {
		df, err := os.Create(filepath.Join(dir, fmt.Sprintf("dev%03d.gob", i)))
		if err != nil {
			return err
		}
		snap, err := d.Snapshot()
		if err != nil {
			df.Close()
			return fmt.Errorf("volio: snapshot device %d: %w", i, err)
		}
		if err := gob.NewEncoder(df).Encode(snap); err != nil {
			df.Close()
			return fmt.Errorf("volio: encode device %d: %w", i, err)
		}
		if err := df.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a volume image from dir, recreating devices (attached to
// the optional engine) and the directory with identical extents. A
// header claiming fewer than one device, or a geometry field ≤ 0, is
// refused; the device list grows as each device file opens, so a header
// claiming more devices than the image holds fails at the first missing
// file instead of allocating for the claim.
func Load(dir string, e *sim.Engine) ([]*device.Disk, *pfs.Volume, error) {
	mf, err := os.Open(filepath.Join(dir, metaName))
	if err != nil {
		return nil, nil, err
	}
	defer mf.Close()
	var meta imageMeta
	if err := gob.NewDecoder(mf).Decode(&meta); err != nil {
		return nil, nil, fmt.Errorf("volio: decode metadata: %w", err)
	}
	if meta.Devices < 1 {
		return nil, nil, fmt.Errorf("volio: header claims %d devices", meta.Devices)
	}
	g := meta.Geometry
	for _, f := range []struct {
		name string
		v    int
	}{{"BlockSize", g.BlockSize}, {"BlocksPerCyl", g.BlocksPerCyl}, {"Cylinders", g.Cylinders}} {
		if f.v <= 0 {
			return nil, nil, fmt.Errorf("volio: header geometry %s %d", f.name, f.v)
		}
	}
	// Every drive's image is read before the drives are built, so a
	// header claiming more drives than the directory holds fails at the
	// first missing image.
	var images []map[int64][]byte
	for i := range meta.Devices {
		df, err := os.Open(filepath.Join(dir, fmt.Sprintf("dev%03d.gob", i)))
		if err != nil {
			return nil, nil, err
		}
		var pages map[int64][]byte
		if err := gob.NewDecoder(df).Decode(&pages); err != nil {
			df.Close()
			return nil, nil, fmt.Errorf("volio: decode device %d: %w", i, err)
		}
		df.Close()
		images = append(images, pages)
	}
	disks := device.NewDrives(meta.Devices, device.Config{Geometry: g, Engine: e})
	for i, d := range disks {
		if err := d.Restore(images[i]); err != nil {
			return nil, nil, fmt.Errorf("volio: restore device %d: %w", i, err)
		}
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		return nil, nil, err
	}
	vol := pfs.NewVolume(store)
	for _, imf := range meta.Files {
		if _, err := vol.Restore(imf.Spec, imf.Bases); err != nil {
			return nil, nil, fmt.Errorf("volio: restore %q: %w", imf.Spec.Name, err)
		}
	}
	return disks, vol, nil
}
