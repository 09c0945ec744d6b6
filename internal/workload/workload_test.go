package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	buf := make([]byte, 64)
	Record(buf, 42, 7)
	if err := CheckRecord(buf, 42, 7); err != nil {
		t.Fatal(err)
	}
	if err := CheckRecord(buf, 42, 8); err == nil {
		t.Fatal("wrong record accepted")
	}
	if err := CheckRecord(buf, 43, 7); err == nil {
		t.Fatal("wrong seed accepted")
	}
	buf[40] ^= 1
	if err := CheckRecord(buf, 42, 7); err == nil {
		t.Fatal("corrupted fill accepted")
	}
}

func TestRecordSmallBuffers(t *testing.T) {
	// Buffers under 16 bytes carry only fill; must still round-trip.
	buf := make([]byte, 8)
	Record(buf, 1, 2)
	if err := CheckRecord(buf, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRecordQuick(t *testing.T) {
	if err := quick.Check(func(seed uint64, rec int64, size uint8) bool {
		if rec < 0 {
			rec = -rec
		}
		buf := make([]byte, int(size)+16)
		for i := range buf {
			buf[i] = byte(i) // every byte must be written
		}
		Record(buf, seed, rec)
		return CheckRecord(buf, seed, rec) == nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServiceOfMatchesQueue: the service time a task queue draws for a
// task is the same for the same seed and id, and within [min, max).
func TestServiceOfMatchesQueue(t *testing.T) {
	for id := int64(0); id < 20; id++ {
		got := ServiceOf(9, id, 2*time.Millisecond, 9*time.Millisecond)
		if again := ServiceOf(9, id, 2*time.Millisecond, 9*time.Millisecond); again != got {
			t.Fatalf("ServiceOf(%d) = %v, then %v", id, got, again)
		}
		if got < 2*time.Millisecond || got >= 9*time.Millisecond {
			t.Fatalf("ServiceOf(%d) = %v out of range", id, got)
		}
	}
	if got := ServiceOf(0, 1, 5*time.Millisecond, 5*time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("degenerate range = %v", got)
	}
}

func TestAccessPatterns(t *testing.T) {
	u := NewUniformAccess(3, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		r := u.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("uniform out of range: %d", r)
		}
		counts[r]++
	}
	z := NewZipfAccess(3, 100, 1.0)
	zc := make([]int, 100)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("zipf out of range: %d", r)
		}
		zc[r]++
	}
	if zc[0] <= counts[0]*3 {
		t.Fatalf("zipf rank0 %d not clearly hotter than uniform %d", zc[0], counts[0])
	}
}
