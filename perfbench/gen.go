package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"uhtm/internal/server"
)

// The open-loop generator. Request i of a step is due at start + i/rate
// and goes out on connection i mod len(conns); its latency runs from
// that due time to its last reply, so a stall shows up in every request
// it delays. A connection whose previous reply is late sends late: that
// send lag is the backlog.
//
// A connection waits for a due time on a Linux timerfd registered with
// the runtime's network poller. time.Sleep cannot keep the schedule: on
// Linux a sub-millisecond sleep waits on an epoll timeout of whole
// milliseconds, so it wakes about half a millisecond late — more than
// ten times a request's service time. Spinning on the clock is no
// better in-process: a spinning goroutine keeps a processor's run queue
// busy, the runtime then stops polling the network from it, and replies
// sit unread. A timerfd wakes the poller like any socket.

// genRequest is one scheduled request: one command, or a MULTI … EXEC
// group sent as one pipeline.
type genRequest struct {
	// cmds builds the request's commands when it is sent, so a step's
	// PUT values are not all held in memory at once.
	cmds func() [][][]byte
	// check validates the replies; it runs on the connection's
	// goroutine, so it may only touch that connection's state.
	check func(reps []server.Reply) error
}

// stepResult is one open-loop step.
type stepResult struct {
	lat    []float64 // µs from due time to reply, completed requests only
	late   []float64 // µs a connection woke after a due time it waited for
	lag    []float64 // µs from due time to send, by request index (-1: not sent)
	sent   int
	failed int
	errs   []error
	cut    bool // stopped early: send lag passed the cut-off
}

// backlog reports whether send lag grew across the step: the median lag
// over its last tenth exceeds that over its first tenth by more than
// limit. A step that was cut short has a backlog by definition.
func (r *stepResult) backlog(limit time.Duration) bool {
	if r.cut {
		return true
	}
	n := len(r.lag)
	tenth := n / 10
	if tenth < 1 {
		return false
	}
	head := medianOf(r.lag[:tenth])
	tail := medianOf(r.lag[n-tenth:])
	return tail-head > float64(limit.Microseconds())
}

// runOpenLoop issues reqs at rate requests per second over conns. Once
// any request goes out more than cutoff behind its due time, every
// connection stops and the rest are not sent.
func runOpenLoop(conns []*server.Client, reqs []genRequest, rate float64, cutoff time.Duration) (*stepResult, error) {
	// Start every step from a collected heap, so the previous step's
	// garbage neither triggers a collection inside this one nor sets the
	// run's peak memory.
	runtime.GC()
	n := len(reqs)
	res := &stepResult{lag: make([]float64, n)}
	for i := range res.lag {
		res.lag[i] = -1
	}
	timers := make([]*timer, len(conns))
	for c := range timers {
		t, err := newTimer()
		if err != nil {
			return nil, err
		}
		defer t.close()
		timers[c] = t
	}
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func(c int, conn *server.Client) {
			defer wg.Done()
			var lat, late []float64
			var failed, sent int
			var errs []error
			for i := c; i < n && !stop.Load(); i += len(conns) {
				due := start.Add(time.Duration(float64(i) * interval))
				if time.Now().Before(due) {
					if err := timers[c].wait(due); err != nil {
						failed++
						errs = append(errs, err)
						break
					}
					late = append(late, float64(time.Since(due))/1e3)
				}
				lagNS := time.Since(due)
				if lagNS > cutoff {
					stop.Store(true)
					break
				}
				res.lag[i] = float64(lagNS) / 1e3
				sent++
				reps, err := conn.Pipeline(reqs[i].cmds())
				if err == nil {
					err = reqs[i].check(reps)
				}
				lat = append(lat, float64(time.Since(due))/1e3)
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err)
					}
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.late = append(res.late, late...)
			res.failed += failed
			res.sent += sent
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c, conn)
	}
	wg.Wait()
	res.cut = stop.Load()
	return res, nil
}

// timer is a one-shot CLOCK_MONOTONIC timerfd read through the runtime
// poller.
type timer struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newTimer() (*timer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor is registered with the poller, so Read
	// parks the goroutine instead of a thread.
	return &timer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// wakeEarly is how long before a due time the timer fires; the rest is
// spun on the clock. The poller wakes a parked goroutine about 10 µs
// after the timer expires, a fifth of a fast request's round trip.
const wakeEarly = 30 * time.Microsecond

// wait blocks until t.
func (tm *timer) wait(t time.Time) error {
	if err := tm.sleep(time.Until(t) - wakeEarly); err != nil {
		return err
	}
	for time.Now().Before(t) {
	}
	return nil
}

// sleep parks the goroutine for d.
func (tm *timer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(tm.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	if _, err := tm.f.Read(buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (tm *timer) close() { tm.f.Close() }
