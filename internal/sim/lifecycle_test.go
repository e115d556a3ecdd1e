package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test if it doesn't within a generous deadline.
// Goroutine exit is asynchronous with the channel operations that trigger
// it, so an immediate count would race.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines still alive, want <= %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShutdownReleasesDeadlineParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.SetDeadline(100)
	for i := 0; i < 8; i++ {
		e.Spawn("p", func(p *Process) {
			p.Sleep(1000) // parked far beyond the deadline
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := runtime.NumGoroutine(); got <= base {
		t.Fatalf("expected parked goroutines before Shutdown, have %d (baseline %d)", got, base)
	}
	e.Shutdown()
	waitGoroutines(t, base)
}

func TestShutdownReleasesDeadlockedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 4; i++ {
		e.Spawn("p", func(p *Process) {
			r.Acquire(p)
			p.Sleep(10)
			// Never released: everyone after the first wedges.
		})
	}
	var derr *DeadlockError
	if err := e.Run(); !errors.As(err, &derr) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
}

func TestShutdownReleasesStoppedEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Spawn("p", func(p *Process) {
			for {
				p.Sleep(10)
			}
		})
	}
	e.Schedule(55, e.Stop)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
}

func TestShutdownBeforeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	started := false
	e.Spawn("p", func(p *Process) { started = true })
	e.Shutdown()
	waitGoroutines(t, base)
	if started {
		t.Fatal("process body ran despite Shutdown before Run")
	}
}

func TestShutdownRunsDeferredCalls(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.SetDeadline(10)
	unwound := false
	e.Spawn("p", func(p *Process) {
		defer func() { unwound = true }()
		p.Sleep(1000)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
	if !unwound {
		t.Fatal("deferred call in parked process body did not run on Shutdown")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Sleep(1000) })
	e.SetDeadline(10)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	e.Shutdown() // must be a no-op, not a hang or panic
}

func TestShutdownOnFinishedEngine(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Sleep(10) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown() // nothing to release; must not hang
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn on a shut-down engine did not panic")
		}
	}()
	e.Spawn("p", func(p *Process) {})
}

func TestRunAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a shut-down engine did not panic")
		}
	}()
	_ = e.Run()
}

// TestManyEnginesNoLeak models a sweep: many engines run to a deadline and
// are shut down; the goroutine count must return to baseline.
func TestManyEnginesNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		e.SetDeadline(1000)
		for j := 0; j < 4; j++ {
			e.Spawn("p", func(p *Process) {
				for {
					p.Sleep(Time(1 + j))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run #%d: %v", i, err)
		}
		e.Shutdown()
	}
	waitGoroutines(t, base)
}

// TestProcessesReleaseBodyCaptures pins the memory bound of engines kept
// alive after their run (an obs.Session keeps every engine it traced): a
// process that finished, one that Shutdown unwound, and one that Shutdown
// reaped before it ever started must not keep their bodies' captures
// reachable through the engine.
func TestProcessesReleaseBodyCaptures(t *testing.T) {
	e := NewEngine()
	var freed atomic.Int32
	// body returns a process body capturing a payload of its own, whose
	// finalizer counts it collected.
	body := func(d Time) func(*Process) {
		payload := new([1 << 12]byte)
		runtime.SetFinalizer(payload, func(*[1 << 12]byte) { freed.Add(1) })
		return func(p *Process) {
			p.Sleep(d)
			payload[0]++
		}
	}
	e.Spawn("finishes", body(10))
	e.Spawn("unwound", body(1000))
	e.Spawn("stopper", func(p *Process) {
		p.Sleep(20)
		e.Stop()
		e.Spawn("never-started", body(1))
	})
	waitFreed := func(want int32) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for freed.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d body captures collected, want %d: the engine pins them", freed.Load(), want)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	waitFreed(1)
	e.Shutdown()
	waitFreed(3)
	runtime.KeepAlive(e)
}

// TestShutdownDeferredParkExits: a deferred call that parks again while
// Shutdown unwinds the body is itself unwound, the deferred calls below it
// still run, and no goroutine is left behind.
func TestShutdownDeferredParkExits(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.SetDeadline(10)
	var parked, outer bool
	e.Spawn("p", func(p *Process) {
		defer func() { outer = true }()
		defer func() {
			parked = true
			p.Sleep(5)
			t.Error("deferred call continued past a park during Shutdown")
		}()
		p.Sleep(1000)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
	if !parked || !outer {
		t.Fatalf("deferred calls ran: parking one %v, outer one %v; want both", parked, outer)
	}
}

// TestBodyPanicSurfacesFromRun: a panic in a process body reaches the
// goroutine that called Run, and a following Shutdown still releases the
// processes that were parked at the time.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 3; i++ {
		e.Spawn("sleeper", func(p *Process) { p.Sleep(1000) })
	}
	e.Spawn("boom", func(p *Process) {
		p.Sleep(10)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v from Run, want the body's panic", r)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned instead of re-raising the body's panic")
	}()
	e.Shutdown()
	waitGoroutines(t, base)
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", e.Live())
	}
}

// windowedLog runs a small contended program window by window, each
// RunWindow issued through call, and returns the order of its events.
func windowedLog(t *testing.T, call func(func())) []string {
	t.Helper()
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var log []string
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			for j := 0; j < 5; j++ {
				r.Acquire(p)
				log = append(log, fmt.Sprintf("%v %s", p.Now(), p.Name()))
				p.Sleep(Time(3 + i))
				r.Release()
			}
		})
	}
	windows := 0
	for limit := Time(7); ; limit += 7 {
		if _, ok := e.NextEventAt(); !ok {
			break
		}
		var err error
		call(func() { err = e.RunWindow(limit) })
		if err != nil {
			t.Fatalf("RunWindow(%v): %v", limit, err)
		}
		windows++
	}
	if e.Live() != 0 || windows < 10 {
		t.Fatalf("program ended with %d live processes after %d windows", e.Live(), windows)
	}
	return log
}

// TestRunWindowAcrossGoroutines: the PDES coordinator may drive a
// partition's windows from a different worker goroutine each time; the
// coroutines must follow, and the event order must not change.
func TestRunWindowAcrossGoroutines(t *testing.T) {
	same := windowedLog(t, func(f func()) { f() })
	moved := windowedLog(t, func(f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		<-done
	})
	if fmt.Sprint(same) != fmt.Sprint(moved) {
		t.Fatalf("event order depends on the calling goroutine:\nsame:  %v\nmoved: %v", same, moved)
	}
}
