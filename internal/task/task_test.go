package task

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// popHead removes and returns the first task, or nil when empty.
func popHead(q *Queue) *Task {
	return q.Select(func(items []*Task) int {
		if len(items) == 0 {
			return -1
		}
		return 0
	})
}

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
					tk := popHead(q)
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
		if got := popHead(q); got.ID != w {
			t.Fatalf("popHead = %d, want %d", got.ID, w)
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

// TestQueueWakeContract: a mutation starts a new generation of every
// class's Idle signal, so a worker that read the generation before asking
// the policy cannot park through it — the no-lost-wakeup rule. An open
// empty queue fires nothing: no worker can be waiting on it for anything
// but a Push.
func TestQueueWakeContract(t *testing.T) {
	push := func(n int) func(*Queue) {
		return func(q *Queue) {
			for i := 0; i < n; i++ {
				q.Push(&Task{ID: int64(i)})
			}
		}
	}
	for _, c := range []struct {
		name  string
		setup func(*Queue)
		op    func(*Queue)
		fires bool
	}{
		{"Push", nil, push(1), true},
		{"PushOpen", nil, func(q *Queue) { q.PushOpen(&Task{}) }, true},
		{"Requeue", nil, func(q *Queue) { q.Requeue(&Task{}) }, true},
		{"Requeue on a closed queue", func(q *Queue) { q.Close() }, func(q *Queue) { q.Requeue(&Task{}) }, true},
		{"Close", nil, func(q *Queue) { q.Close() }, true},
		{"Select removing, tasks left", push(2), func(q *Queue) { popHead(q) }, true},
		{"Select removing the last task of a closed queue", func(q *Queue) { push(1)(q); q.Close() }, func(q *Queue) { popHead(q) }, true},
		{"Wake with tasks queued", push(1), func(q *Queue) { q.Wake() }, true},
		{"Select removing the last task", push(1), func(q *Queue) { popHead(q) }, false},
		{"Select declining", push(1), func(q *Queue) { q.Select(func([]*Task) int { return -1 }) }, false},
		{"Wake on an open empty queue", nil, func(q *Queue) { q.Wake() }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := NewQueue()
			if c.setup != nil {
				c.setup(q)
			}
			cpu, gpu := q.Idle(0), q.Idle(1)
			gc, gg := cpu.Gen(), gpu.Gen()
			c.op(q)
			if got := cpu.Gen() != gc; got != c.fires {
				t.Fatalf("class 0 fired = %v, want %v", got, c.fires)
			}
			if got := gpu.Gen() != gg; got != c.fires {
				t.Fatalf("class 1 fired = %v, want %v", got, c.fires)
			}
		})
	}
}

// TestPushOpenClosedChangesNothing: a refused PushOpen neither queues the
// task nor wakes anyone.
func TestPushOpenClosedChangesNothing(t *testing.T) {
	q := NewQueue()
	q.Close()
	idle := q.Idle(0)
	g := idle.Gen()
	if q.PushOpen(&Task{}) {
		t.Fatal("PushOpen accepted a task on a closed queue")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after a refused PushOpen", q.Len())
	}
	if idle.Gen() != g {
		t.Fatal("a refused PushOpen fired the idle signal")
	}
}

// parkN parks n goroutines on s at its current generation and returns a
// channel that receives once per goroutine that wakes, after all have
// parked.
func parkN(t *testing.T, s *Signal, n int) <-chan struct{} {
	t.Helper()
	woke := make(chan struct{}, n)
	g := s.Gen()
	for i := 0; i < n; i++ {
		go func() {
			s.Park(g)
			woke <- struct{}{}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		parked := len(s.parked)
		s.mu.Unlock()
		if parked == n {
			return woke
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d goroutines parked", parked, n)
		}
		runtime.Gosched()
	}
}

// expectWakes waits for want wake-ups on woke, then checks no more come.
func expectWakes(t *testing.T, woke <-chan struct{}, want int, what string) {
	t.Helper()
	for i := 0; i < want; i++ {
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: %d of %d waiters woke", what, i, want)
		}
	}
	select {
	case <-woke:
		t.Fatalf("%s: more than %d waiters woke", what, want)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestQueueWakesOnePerClass: a change on an open queue wakes one parked
// worker of each class, not every parked worker; Close wakes them all.
func TestQueueWakesOnePerClass(t *testing.T) {
	q := NewQueue()
	cpu := parkN(t, q.Idle(0), 3)
	gpu := parkN(t, q.Idle(1), 1)
	q.Push(&Task{})
	expectWakes(t, cpu, 1, "Push, class 0")
	expectWakes(t, gpu, 1, "Push, class 1")
	q.Close()
	expectWakes(t, cpu, 2, "Close, class 0")
}

// TestSignalPark: a stale generation never parks; Fire(n) wakes the n
// longest-parked waiters and Fire(-1) all of them.
func TestSignalPark(t *testing.T) {
	var s Signal
	g := s.Gen()
	s.Fire(1)
	returned := make(chan struct{})
	go func() {
		s.Park(g) // a Fire came after g: must not park
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Park with a stale generation parked")
	}

	woke := parkN(t, &s, 3)
	s.Fire(1)
	expectWakes(t, woke, 1, "Fire(1)")
	s.Fire(-1)
	expectWakes(t, woke, 2, "Fire(-1)")
}
