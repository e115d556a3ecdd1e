package sim

import "testing"

// BenchmarkEventThroughput measures raw event dispatch (schedule + fire).
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(10, tick)
		}
	}
	e.Schedule(10, tick)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures one Sleep/resume cycle of a lone
// process: the self-resume fast path, which parks without switching.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceHandoff measures contended FIFO resource cycling
// between two processes, where every grant is a real coroutine switch.
func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *Process) {
			for j := 0; j < b.N/2; j++ {
				r.Acquire(p)
				p.Sleep(1)
				r.Release()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
