package harness

import "uhtm/internal/sim"

// Session decouples engine lifetime from the one-shot run: where
// Execute builds a fresh engine per spec and runs it to completion
// exactly once, a Session keeps one engine (and whatever machine and
// durable state hang off it) alive across an unbounded stream of work
// batches. Each Do call spawns short-lived thread bodies into recycled
// core slots, starts them at the engine's current virtual time, and
// drives the engine until the batch finishes — so a network server can
// map arriving requests onto simulated transactions without rebuilding
// the world per request. A Session is single-goroutine like the engine
// it wraps: callers serialize Do/Restart themselves (the server funnels
// all batches through one engine-loop goroutine).
type Session struct {
	eng *sim.Engine
}

// NewSession wraps a long-lived engine. The engine may already have
// history (completed runs, advanced virtual time); it must not be
// mid-Run.
func NewSession(eng *sim.Engine) *Session {
	return &Session{eng: eng}
}

// Do runs one batch of simulated work to completion: finished thread
// slots are recycled, one fresh thread per body is spawned (named
// "name.i") with its clock advanced to the engine's current virtual
// time — new work arrives "now", never in the simulated past — and the
// engine runs until every body returns or a halt stops it.
//
// It returns the virtual time the batch ended at, and whether the
// engine halted mid-batch (an injected power failure). After a halt the
// batch's never-started bodies are cancelled — their work is lost,
// exactly like requests in flight at a real power failure — and the
// caller must Restart (typically after crash recovery) before the next
// Do.
func (s *Session) Do(name string, bodies ...func(*sim.Thread)) (end sim.Time, halted bool) {
	if s.eng.Halted() {
		panic("harness: Session.Do on a halted engine — Restart first")
	}
	s.eng.Recycle()
	now := s.eng.Now()
	for i, body := range bodies {
		th := s.eng.SpawnIndexed(name, i, body)
		th.Bump(now - th.Clock())
	}
	end = s.eng.Run()
	if s.eng.Halted() {
		// Cancel skips started and finished threads, so this cancels
		// exactly the bodies the halt left unstarted.
		for _, th := range s.eng.Threads() {
			th.Cancel()
		}
		return end, true
	}
	return end, false
}

// Restart reboots a halted engine (sim.Engine.Restart) so the session
// can accept batches again. The caller is responsible for recovering
// whatever machine state the halt corrupted (core.Machine.Crash +
// Recover) before submitting new work.
func (s *Session) Restart() {
	s.eng.Restart()
	s.eng.Recycle()
}
