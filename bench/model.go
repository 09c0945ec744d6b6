package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	pario "repro"
	"repro/internal/workload"
)

// stamp is the 8-byte op stamp written over a record's seed field
// (workload.Record's bytes 0..8) to make every op's payload fresh without
// regenerating it. The seed's low bytes are kept, because
// workload.CheckRecord derives the fill byte from them.
func stamp(seed uint64, op int) uint64 { return uint64(op+1)<<32 | seed&0xffffffff }

// refModel is the serial reference model the benchmark checks the
// program's bytes against: for every record of the files it covers, which
// pre-generated payload slot wrote it last and under which op stamp. A
// record nobody wrote must read back as zeros.
type refModel struct {
	recSize int
	slot    []int32  // payload slot + 1; 0: never written
	stamp   []uint64 // stamp(seed, op) of the last write
	pay     func(slot int) []byte
	zero    []byte
}

func newRefModel(records int64, recSize int, pay func(slot int) []byte) *refModel {
	return &refModel{
		recSize: recSize, slot: make([]int32, records), stamp: make([]uint64, records),
		pay: pay, zero: make([]byte, recSize),
	}
}

// newPayload fills one slot's record with the seeded self-identifying
// pattern; ops later overwrite only its first 8 bytes with their stamp.
func newPayload(buf []byte, seed uint64, slot int) {
	workload.Record(buf, stamp(seed, -1), int64(slot))
}

// wrote records that payload slot, stamped st, now occupies record idx.
func (m *refModel) wrote(idx int64, slot int, st uint64) {
	m.slot[idx], m.stamp[idx] = int32(slot+1), st
}

// expect checks one record read back from idx.
func (m *refModel) expect(idx int64, got []byte) error {
	if m.slot[idx] == 0 {
		if !bytes.Equal(got, m.zero) {
			return fmt.Errorf("record %d: never written but not zero", idx)
		}
		return nil
	}
	return m.expectAs(idx, got, m.stamp[idx])
}

// expectAs checks got against idx's last writer's payload under stamp st.
func (m *refModel) expectAs(idx int64, got []byte, st uint64) error {
	slot := int(m.slot[idx] - 1)
	if binary.BigEndian.Uint64(got) == st && bytes.Equal(got[8:], m.pay(slot)[8:]) {
		return nil
	}
	// Slow path, only to name what is wrong.
	if err := workload.CheckRecord(got, st, int64(slot)); err != nil {
		return fmt.Errorf("record %d: %w", idx, err)
	}
	return fmt.Errorf("record %d: payload differs from slot %d", idx, slot)
}

// verifyFile is the final full-image check of one file: every record,
// read through the conventional sequential view under a wall context.
// base is the model index of the file's record 0.
func (m *refModel) verifyFile(f *pario.File, base int64, c *clock) error {
	gr, err := pario.OpenGlobalReader(f, pario.NewWall())
	if err != nil {
		return err
	}
	buf := make([]byte, m.recSize)
	for rec := int64(0); rec < f.Spec().NumRecords; rec++ {
		if _, err := io.ReadFull(gr, buf); err != nil {
			return fmt.Errorf("final verify %s: %w", f.Name(), err)
		}
		c.verifyAll++
		if e := m.expect(base+rec, buf); e != nil {
			if c.verifyFailed == 0 {
				fmt.Fprintf(logw, "final verify %s: %v\n", f.Name(), e)
			}
			c.verifyFailed++
		}
	}
	return nil
}
