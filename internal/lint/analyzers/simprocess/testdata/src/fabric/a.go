// Fixture for ksrlint/simprocess: "fabric" is a sim-managed segment, so
// raw goroutines and real-clock waits report here.
package fabric

import "time"

func spawnRaw(work func()) {
	go work() // want `single-control-token discipline`
}

func hostSleep() {
	time.Sleep(time.Millisecond) // want `time.Sleep waits on the host clock`
}

func hostTimeout() <-chan time.Time {
	return time.After(time.Second) // want `time.After waits on the host clock`
}

func hostTimer() *time.Timer {
	return time.NewTimer(time.Second) // want `time.NewTimer waits on the host clock`
}

// engineSpawn mirrors the engine's explained ignore.
func engineSpawn(body func()) {
	//lint:ignore ksrlint/simprocess fixture: the engine-mediated spawn path itself
	go body()
}

// simDuration only constructs durations; it never arms the host clock.
func simDuration(n int) time.Duration {
	return time.Duration(n) * time.Microsecond
}
