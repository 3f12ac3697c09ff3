package task

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueueFIFOUnderConcurrency: with concurrent producers, a single
// consumer sees every producer's tasks in push order, and several
// consumers together pop every task exactly once. Pops by different
// consumers are ordered only by the queue lock, so the multi-consumer
// run checks conservation, not the order in which pops returned.
func TestQueueFIFOUnderConcurrency(t *testing.T) {
	const producers = 4
	const perProducer = 500
	run := func(t *testing.T, consumers int, onPop func(*Task)) {
		q := NewQueue()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					q.Push(&Task{Query: p, ID: int64(i)})
				}
			}(p)
		}
		var consumed atomic.Int64
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for consumed.Load() < producers*perProducer {
					tk := q.PopHead()
					if tk == nil {
						runtime.Gosched()
						continue
					}
					onPop(tk)
					consumed.Add(1)
				}
			}()
		}
		wg.Wait()
		if q.Len() != 0 {
			t.Fatalf("queue not empty: %d", q.Len())
		}
	}

	t.Run("order", func(t *testing.T) {
		next := make([]int64, producers)
		run(t, 1, func(tk *Task) {
			if tk.ID != next[tk.Query] {
				t.Errorf("query %d: popped ID %d, want %d", tk.Query, tk.ID, next[tk.Query])
			}
			next[tk.Query] = tk.ID + 1
		})
	})

	t.Run("conservation", func(t *testing.T) {
		var seen [producers][perProducer]atomic.Int32
		run(t, 3, func(tk *Task) { seen[tk.Query][tk.ID].Add(1) })
		for p := range seen {
			for id := range seen[p] {
				if n := seen[p][id].Load(); n != 1 {
					t.Fatalf("query %d ID %d popped %d times", p, id, n)
				}
			}
		}
	})
}

func TestSelectRemovesChosen(t *testing.T) {
	q := NewQueue()
	for i := int64(0); i < 5; i++ {
		q.Push(&Task{ID: i})
	}
	got := q.Select(func(items []*Task) int {
		for i, t := range items {
			if t.ID == 3 {
				return i
			}
		}
		return -1
	})
	if got == nil || got.ID != 3 {
		t.Fatalf("Select = %+v", got)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Remaining order intact.
	want := []int64{0, 1, 2, 4}
	for _, w := range want {
		if got := q.PopHead(); got.ID != w {
			t.Fatalf("PopHead = %d, want %d", got.ID, w)
		}
	}
}

func TestSelectNegativeKeepsQueue(t *testing.T) {
	q := NewQueue()
	q.Push(&Task{ID: 1})
	if got := q.Select(func([]*Task) int { return -1 }); got != nil {
		t.Fatal("Select(-1) returned a task")
	}
	if q.Len() != 1 {
		t.Fatal("task lost")
	}
}
