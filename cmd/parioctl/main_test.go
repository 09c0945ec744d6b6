package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// ctl runs a subcommand against a volume dir, failing the test on error.
func ctl(t *testing.T, stdin []byte, sub string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(sub, args, bytes.NewReader(stdin), &out); err != nil {
		t.Fatalf("parioctl %s %v: %v", sub, args, err)
	}
	return out.String()
}

func TestCLILifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vol")

	ctl(t, nil, "init", "-vol", dir, "-devices", "3")

	ctl(t, nil, "create", "-vol", dir, "-name", "data", "-org", "PS",
		"-records", "64", "-recsize", "128", "-parts", "2")

	// Round-trip payload through put/cat (the global view).
	payload := bytes.Repeat([]byte("parallel files! "), 512) // 8192 = 64*128
	ctl(t, payload, "put", "-vol", dir, "-name", "data")
	got := ctl(t, nil, "cat", "-vol", dir, "-name", "data")
	if got != string(payload) {
		t.Fatalf("cat returned %d bytes, want %d (mismatch)", len(got), len(payload))
	}

	ls := ctl(t, nil, "ls", "-vol", dir)
	if !strings.Contains(ls, "data") || !strings.Contains(ls, "PS") {
		t.Fatalf("ls = %q", ls)
	}

	info := ctl(t, nil, "info", "-vol", dir, "-name", "data")
	for _, want := range []string{"organization: PS", "records:      64 x 128 bytes", "partitions:   2"} {
		if !strings.Contains(info, want) {
			t.Fatalf("info missing %q:\n%s", want, info)
		}
	}

	// Convert PS -> IS; the converted file must cat identically.
	ctl(t, nil, "convert", "-vol", dir, "-src", "data", "-dst", "data-is", "-org", "IS", "-parts", "2")
	got2 := ctl(t, nil, "cat", "-vol", dir, "-name", "data-is")
	if got2 != string(payload) {
		t.Fatal("converted file differs")
	}

	fsck := ctl(t, nil, "fsck", "-vol", dir)
	if !strings.Contains(fsck, "consistent") {
		t.Fatalf("fsck = %q", fsck)
	}

	df := ctl(t, nil, "df", "-vol", dir)
	if !strings.Contains(df, "device") || !strings.Contains(df, "d0") {
		t.Fatalf("df = %q", df)
	}

	ctl(t, nil, "rm", "-vol", dir, "-name", "data")
	ls2 := ctl(t, nil, "ls", "-vol", dir)
	if strings.Contains(ls2, "data ") {
		t.Fatalf("rm left file behind: %q", ls2)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vol")
	var out bytes.Buffer
	if err := run("ls", []string{"-vol", dir}, nil, &out); err == nil {
		t.Fatal("ls on missing volume accepted")
	}
	if err := run("ls", []string{}, nil, &out); err == nil {
		t.Fatal("missing -vol accepted")
	}
	if err := run("bogus", []string{"-vol", dir}, nil, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	ctl(t, nil, "init", "-vol", dir)
	if err := run("create", []string{"-vol", dir, "-name", "x", "-org", "WAT", "-records", "1", "-recsize", "8"}, nil, &out); err == nil {
		t.Fatal("bad organization accepted")
	}
	if err := run("cat", []string{"-vol", dir, "-name", "nope"}, nil, &out); err == nil {
		t.Fatal("cat of missing file accepted")
	}
}

// TestCLIInitRejectsDeviceCount: init with a device count below one is
// an error, not a panic allocating the drive list.
func TestCLIInitRejectsDeviceCount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vol")
	var out bytes.Buffer
	for _, n := range []string{"-2", "0"} {
		if err := run("init", []string{"-vol", dir, "-devices", n}, nil, &out); err == nil || !strings.Contains(err.Error(), "-devices "+n) {
			t.Fatalf("init -devices %s = %v, want an error naming the count", n, err)
		}
	}
}

func TestParseOrgAll(t *testing.T) {
	for _, s := range []string{"S", "PS", "IS", "SS", "GDA", "PDA"} {
		if _, err := parseOrg(s); err != nil {
			t.Fatalf("parseOrg(%s): %v", s, err)
		}
	}
	if _, err := parseOrg("nope"); err == nil {
		t.Fatal("bad org accepted")
	}
}
