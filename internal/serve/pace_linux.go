package serve

import (
	"syscall"
	"time"
)

// sleepFine sleeps for d, a fraction of a millisecond, to the kernel's
// timer resolution. time.Sleep will not do: once every P is idle the
// runtime parks in epoll_wait, whose timeout is whole milliseconds, and
// a 0.3 ms sleep takes 1 ms or more.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// The runtime's preemption signal interrupts the sleep; ts then holds
	// what is left of it.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
