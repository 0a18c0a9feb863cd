package des

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	end := s.Run()
	if end != 3 {
		t.Errorf("end time = %v", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSameTimeEventsFIFOBySchedule(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var ran []string
	s.Schedule(1, func() {
		ran = append(ran, "outer")
		s.Schedule(2, func() { ran = append(ran, "inner") }) // relative to the outer event: t = 3
		s.Schedule(1, func() { ran = append(ran, "sibling") })
	})
	end := s.Run()
	if end != 3 || strings.Join(ran, " ") != "outer sibling inner" {
		t.Errorf("ran = %v end = %v", ran, end)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestResourceLimitsConcurrency(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var concurrent, peak int
	task := func(dur float64) {
		r.Acquire(func(release func()) {
			concurrent++
			if concurrent > peak {
				peak = concurrent
			}
			s.Schedule(dur, func() {
				concurrent--
				release()
			})
		})
	}
	for i := 0; i < 10; i++ {
		task(1)
	}
	end := s.Run()
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
	// 10 unit tasks on 2 slots = 5 time units.
	if end != 5 {
		t.Errorf("end = %v, want 5", end)
	}
}

func TestResourceFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func(release func()) {
			order = append(order, i)
			s.Schedule(1, release)
		})
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	r.Acquire(func(release func()) {
		release()
		release()
	})
	s.Run()
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewResource(New(), 0)
}

// Property: makespan of n unit tasks on c slots is ceil(n/c).
func TestQuickMakespan(t *testing.T) {
	f := func(nTasks, caps uint8) bool {
		n := int(nTasks)%50 + 1
		c := int(caps)%8 + 1
		s := New()
		r := NewResource(s, c)
		for i := 0; i < n; i++ {
			r.Acquire(func(release func()) {
				s.Schedule(1, release)
			})
		}
		end := s.Run()
		want := float64((n + c - 1) / c)
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyAndQueueLen(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.Acquire(func(release func()) { s.Schedule(10, release) })
	r.Acquire(func(release func()) { s.Schedule(1, release) })
	s.Schedule(5, func() {
		if r.busy != 1 {
			t.Errorf("busy = %d", r.busy)
		}
		if len(r.waiting) != 1 {
			t.Errorf("waiting = %d", len(r.waiting))
		}
	})
	s.Run()
}
