package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestQueueBoundsInFlight: a depth-2 queue never holds more than 2
// items, the consumer sees FIFO order, and Close ends the stream after
// draining.
func TestQueueBoundsInFlight(t *testing.T) {
	e := NewEngine()
	q := NewQueue(2)
	var got []int
	maxDepth := 0
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Put(p, i)
			if d := q.Len(); d > maxDepth {
				maxDepth = d
			}
		}
		q.Close(p)
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				break
			}
			p.Sleep(time.Millisecond) // slow consumer forces backpressure
			got = append(got, v.(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("consumed %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want FIFO order", i, v)
		}
	}
	if maxDepth > 2 {
		t.Fatalf("queue held %d items, bound is 2", maxDepth)
	}
}

// TestQueueCloseUnblocksConsumer: a consumer parked on an empty queue
// wakes with ok=false when the producer closes without sending.
func TestQueueCloseUnblocksConsumer(t *testing.T) {
	e := NewEngine()
	q := NewQueue(1)
	done := false
	e.Go("consumer", func(p *Proc) {
		if _, ok := q.Get(p); ok {
			t.Error("Get returned an item from an empty closed queue")
		}
		done = true
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("consumer never finished")
	}
}

// TestPipeOverlapsStages: with stage times A and B per item, a depth-1
// pipeline of n items completes in ≈ n·max(A,B) + min(A,B) rather than
// n·(A+B) — the whole point of the helper.
func TestPipeOverlapsStages(t *testing.T) {
	const n = 8
	const produceT = 3 * time.Millisecond
	const consumeT = 5 * time.Millisecond
	e := NewEngine()
	var elapsed time.Duration
	e.Go("pipe", func(p *Proc) {
		err := Pipe(p, "stage2", 1,
			func(q *Queue) error {
				for i := 0; i < n; i++ {
					p.Sleep(produceT)
					q.Put(p, i)
				}
				q.Close(p)
				return nil
			},
			func(c *Proc, q *Queue) error {
				for {
					_, ok := q.Get(c)
					if !ok {
						return nil
					}
					c.Sleep(consumeT)
				}
			})
		if err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := n*consumeT + produceT // bottleneck × n + pipeline fill
	if elapsed != want {
		t.Fatalf("pipelined run took %v, want %v (serial would be %v)",
			elapsed, want, n*(produceT+consumeT))
	}
}

// TestPipeJoinsErrors: failures in both stages surface in the joined
// error, and a failing consumer that keeps draining never deadlocks the
// producer.
func TestPipeJoinsErrors(t *testing.T) {
	e := NewEngine()
	prodErr := errors.New("producer failed")
	consErr := errors.New("consumer failed")
	e.Go("pipe", func(p *Proc) {
		err := Pipe(p, "stage2", 1,
			func(q *Queue) error {
				for i := 0; i < 5; i++ {
					q.Put(p, i)
				}
				q.Close(p)
				return prodErr
			},
			func(c *Proc, q *Queue) error {
				var errs []error
				for {
					v, ok := q.Get(c)
					if !ok {
						return errors.Join(errs...)
					}
					if v.(int) == 2 {
						errs = append(errs, consErr)
					}
				}
			})
		if !errors.Is(err, prodErr) || !errors.Is(err, consErr) {
			t.Errorf("joined error = %v, want both stage errors", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPipeConsumerOnCallerSide: the stages may be flipped — companion
// produces, caller consumes — for pipelines whose downstream stage must
// stay on the calling process (a collective's exchange phase).
func TestPipeConsumerOnCallerSide(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Go("pipe", func(p *Proc) {
		err := Pipe(p, "producer", 1,
			func(q *Queue) error {
				for {
					v, ok := q.Get(p)
					if !ok {
						return nil
					}
					got = append(got, v.(string))
				}
			},
			func(c *Proc, q *Queue) error {
				for i := 0; i < 3; i++ {
					c.Sleep(time.Millisecond)
					q.Put(c, fmt.Sprintf("item-%d", i))
				}
				q.Close(c)
				return nil
			})
		if err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "item-0" || got[2] != "item-2" {
		t.Fatalf("consumed %v, want the 3 produced items in order", got)
	}
}
