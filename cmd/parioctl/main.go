// Command parioctl manages parallel-file volumes persisted to host
// directories — the operating-system utilities the paper's §2 requires
// ("interactive management of user programs and files"). Sequential
// tools see parallel files through the global view, exactly as the paper
// prescribes.
//
// Usage:
//
//	parioctl init   -vol DIR -devices N
//	parioctl ls     -vol DIR
//	parioctl info   -vol DIR -name FILE
//	parioctl create -vol DIR -name FILE -org S|PS|IS|SS|GDA|PDA
//	                -records N -recsize BYTES [-blockrecs N] [-parts P]
//	parioctl put    -vol DIR -name FILE            (stdin -> global view)
//	parioctl cat    -vol DIR -name FILE            (global view -> stdout)
//	parioctl rm     -vol DIR -name FILE
//	parioctl convert -vol DIR -src FILE -dst FILE -org ORG [-parts P]
//	parioctl fsck   -vol DIR
//	parioctl df     -vol DIR
//	parioctl trace  [-top N] FILE     (summarize a pariobench -trace file)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	pario "repro"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
)

func usage() {
	fmt.Fprintln(os.Stderr, "parioctl: subcommands: init, ls, info, create, put, cat, rm, convert, fsck, df, trace")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	if err := run(os.Args[1], os.Args[2:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "parioctl: %v\n", err)
		os.Exit(1)
	}
}

// run executes one subcommand; factored out of main for testability.
func run(sub string, args []string, stdin io.Reader, stdout io.Writer) error {
	if sub == "trace" { // operates on a trace file, not a volume
		return traceCmd(args, stdout)
	}
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	vol := fs.String("vol", "", "volume directory")
	name := fs.String("name", "", "file name")
	src := fs.String("src", "", "source file (convert)")
	dst := fs.String("dst", "", "destination file (convert)")
	orgFlag := fs.String("org", "S", "organization: S PS IS SS GDA PDA")
	records := fs.Int64("records", 0, "file length in records")
	recsize := fs.Int("recsize", 0, "record size in bytes")
	blockrecs := fs.Int("blockrecs", 0, "records per block (0 = fill one fs block)")
	parts := fs.Int("parts", 0, "partitions / processes")
	devices := fs.Int("devices", 4, "device count (init)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *vol == "" {
		return fmt.Errorf("missing -vol")
	}

	switch sub {
	case "init":
		if *devices < 1 {
			return fmt.Errorf("init: -devices %d, want at least 1", *devices)
		}
		disks := device.NewDrives(*devices, device.Config{})
		v, err := pario.NewVolume(disks)
		if err != nil {
			return err
		}
		return pario.SaveVolume(*vol, disks, v)
	case "ls":
		_, v, err := load(*vol)
		if err != nil {
			return err
		}
		for _, n := range v.Files() {
			f, err := v.Lookup(n)
			if err != nil {
				return err
			}
			sp := f.Spec()
			fmt.Fprintf(stdout, "%-24s %-4s %8d recs x %-6d B  blocks=%d parts=%d %s\n",
				n, sp.Org, sp.NumRecords, sp.RecordSize,
				f.Mapper().NumBlocks(), f.Parts(), sp.Placement)
		}
		return nil
	case "info":
		_, v, err := load(*vol)
		if err != nil {
			return err
		}
		f, err := v.Lookup(*name)
		if err != nil {
			return err
		}
		sp := f.Spec()
		m := f.Mapper()
		fmt.Fprintf(stdout, "name:         %s\n", f.Name())
		fmt.Fprintf(stdout, "organization: %s (%s)\n", sp.Org, sp.Category)
		fmt.Fprintf(stdout, "records:      %d x %d bytes\n", m.NumRecords(), m.RecordSize())
		fmt.Fprintf(stdout, "blocks:       %d x %d records (%d fs blocks each)\n",
			m.NumBlocks(), m.BlockRecords(), m.FSPerBlock())
		fmt.Fprintf(stdout, "partitions:   %d\n", f.Parts())
		fmt.Fprintf(stdout, "placement:    %s (%s)\n", sp.Placement, f.Layout().Name())
		return nil
	case "create":
		disks, v, err := load(*vol)
		if err != nil {
			return err
		}
		org, err := parseOrg(*orgFlag)
		if err != nil {
			return err
		}
		if _, err := v.Create(pario.Spec{
			Name: *name, Org: org, RecordSize: *recsize,
			BlockRecords: *blockrecs, NumRecords: *records, Parts: *parts,
		}); err != nil {
			return err
		}
		return pario.SaveVolume(*vol, disks, v)
	case "put":
		disks, v, err := load(*vol)
		if err != nil {
			return err
		}
		f, err := v.Lookup(*name)
		if err != nil {
			return err
		}
		ctx := pario.NewWall()
		w, err := pario.OpenGlobalWriter(f, ctx, pario.Options{})
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, stdin); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		return pario.SaveVolume(*vol, disks, v)
	case "cat":
		_, v, err := load(*vol)
		if err != nil {
			return err
		}
		f, err := v.Lookup(*name)
		if err != nil {
			return err
		}
		r, err := pario.OpenGlobalReader(f, pario.NewWall())
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(stdout, r)
		return err
	case "rm":
		disks, v, err := load(*vol)
		if err != nil {
			return err
		}
		if err := v.Remove(*name); err != nil {
			return err
		}
		return pario.SaveVolume(*vol, disks, v)
	case "convert":
		disks, v, err := load(*vol)
		if err != nil {
			return err
		}
		f, err := v.Lookup(*src)
		if err != nil {
			return err
		}
		org, err := parseOrg(*orgFlag)
		if err != nil {
			return err
		}
		p := *parts
		if p == 0 {
			p = f.Parts()
		}
		if _, err := convert.ToOrganization(pario.NewWall(), v, f, *dst, org, p, core.Options{}); err != nil {
			return err
		}
		return pario.SaveVolume(*vol, disks, v)
	case "fsck":
		_, v, err := load(*vol)
		if err != nil {
			return err
		}
		rep := v.Check()
		fmt.Fprint(stdout, rep.String())
		if !rep.OK() {
			return fmt.Errorf("volume inconsistent")
		}
		return nil
	case "df":
		disks, v, err := load(*vol)
		if err != nil {
			return err
		}
		used, free := v.Used(), v.Free()
		bs := int64(v.Store().BlockSize())
		fmt.Fprintf(stdout, "%-8s %12s %12s %12s\n", "device", "used", "free", "capacity")
		for dev := range used {
			fmt.Fprintf(stdout, "%-8s %10dKB %10dKB %10dKB\n", disks[dev].Name(),
				used[dev]*bs/1024, free[dev]*bs/1024, (used[dev]+free[dev])*bs/1024)
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

// load opens a volume image.
func load(dir string) ([]*pario.Disk, *pario.Volume, error) {
	disks, v, err := pario.LoadVolume(dir, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("open volume %s: %w", dir, err)
	}
	return disks, v, nil
}

// parseOrg maps the paper's abbreviations to organizations.
func parseOrg(s string) (pario.Organization, error) {
	switch s {
	case "S":
		return pfs.OrgSequential, nil
	case "PS":
		return pfs.OrgPartitioned, nil
	case "IS":
		return pfs.OrgInterleaved, nil
	case "SS":
		return pfs.OrgSelfScheduled, nil
	case "GDA":
		return pfs.OrgGlobalDirect, nil
	case "PDA":
		return pfs.OrgPartitionedDirect, nil
	default:
		return 0, fmt.Errorf("unknown organization %q", s)
	}
}
