package des

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(30, func(Time) { order = append(order, 3) })
	s.At(10, func(Time) { order = append(order, 1) })
	s.At(20, func(Time) { order = append(order, 2) })
	s.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %d", s.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func(Time) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order[:10])
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var s Sim
	count := 0
	var chain func(Time)
	chain = func(now Time) {
		count++
		if count < 10 {
			s.After(7, chain)
		}
	}
	s.After(7, chain)
	s.Run()
	if count != 10 {
		t.Errorf("count = %d", count)
	}
	if s.Now() != 70 {
		t.Errorf("Now = %d, want 70", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var s Sim
	fired := 0
	for i := Time(10); i <= 100; i += 10 {
		s.At(i, func(Time) { fired++ })
	}
	s.RunUntil(50)
	if fired != 5 {
		t.Errorf("fired = %d, want 5", fired)
	}
	if s.Now() != 50 {
		t.Errorf("Now = %d, want 50", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", s.Pending())
	}
	// Deadline beyond all events: clock advances to deadline.
	s.RunUntil(500)
	if fired != 10 || s.Now() != 500 {
		t.Errorf("fired = %d Now = %d", fired, s.Now())
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	var s Sim
	s.At(10, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.At(5, func(Time) {})
}

func TestStepOnEmptyQueue(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Error("Step on empty queue should return false")
	}
}

// Many events on few distinct times, scheduled in random order and
// interleaved with dispatch, must come out ordered by time and, within a
// time, in scheduling order.
func TestRandomEventsPopInTimeThenScheduleOrder(t *testing.T) {
	const events = 10000
	rng := rand.New(rand.NewSource(1))
	var s Sim
	type key struct {
		at  Time
		seq int
	}
	var got []key
	scheduled := 0
	schedule := func() {
		seq := scheduled
		scheduled++
		s.After(Time(rng.Intn(8)), func(now Time) { got = append(got, key{now, seq}) })
	}
	for scheduled < events/2 {
		schedule()
	}
	for s.Step() {
		if scheduled < events && rng.Intn(2) == 0 {
			schedule()
			schedule()
		}
	}
	for scheduled < events {
		schedule()
		s.Run()
	}
	if len(got) != events {
		t.Fatalf("dispatched %d events, want %d", len(got), events)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("event %d: (%d, #%d) dispatched after (%d, #%d)", i, b.at, b.seq, a.at, a.seq)
		}
	}
}
