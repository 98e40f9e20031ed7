package sim

import (
	"errors"
	"fmt"
)

// ErrStalled reports that a RunUntil made no forward progress for a full
// watchdog window while its predicate stayed false. Callers detect it with
// errors.Is and read the structured detail from the wrapping *StallError.
var ErrStalled = errors.New("sim: no forward progress within watchdog window")

// StallError is the structured diagnostic a tripped watchdog returns in
// place of spinning to the cycle budget: the cycle it fired at, the
// no-progress window that elapsed, and the component-level dump the
// Diagnose hook produced (stuck flits, starving stations, awake
// components — see noc.StallDiagnostic).
type StallError struct {
	// Cycle is the simulation cycle the watchdog fired at.
	Cycle int64
	// Window is the configured no-progress window in cycles.
	Window int64
	// Progress is the progress-counter value that failed to advance.
	Progress uint64
	// Diagnostic is the rendered component dump (may be empty when no
	// Diagnose hook was configured).
	Diagnostic string
}

// Error summarizes the stall; the full diagnostic is appended when
// present.
func (e *StallError) Error() string {
	msg := fmt.Sprintf("%v (cycle %d, window %d, progress counter stuck at %d)",
		ErrStalled, e.Cycle, e.Window, e.Progress)
	if e.Diagnostic != "" {
		msg += "\n" + e.Diagnostic
	}
	return msg
}

// Unwrap lets errors.Is(err, ErrStalled) match.
func (e *StallError) Unwrap() error { return ErrStalled }

// Watchdog detects no-progress windows during RunUntil. Progress is any
// monotonically non-decreasing counter that moves whenever the simulation
// does useful work (the network layer sums flits carried across links and
// packets ejected); if it holds still for Window cycles while the run
// predicate stays false, RunUntil returns a *StallError instead of
// spinning to its cycle budget.
//
// The watchdog is polled at cycle boundaries, a few times per window, so
// it adds no per-component cost and cannot observe a torn mid-cycle
// state. A nil watchdog (the default) leaves RunUntil exactly as before.
type Watchdog struct {
	// Window is the no-progress span, in cycles, that counts as a stall.
	Window int64
	// Progress returns the monotonic work counter. Called between steps
	// only (never concurrently with shard phases).
	Progress func() uint64
	// Diagnose renders the component-level dump embedded in the
	// StallError. Optional.
	Diagnose func(cycle int64) string
}

// SetWatchdog installs (or, with nil, removes) the stall watchdog used by
// subsequent RunUntil calls.
func (e *Engine) SetWatchdog(w *Watchdog) {
	e.watchdog = w
	e.wdLastCycle = e.cycle
	if w != nil && w.Progress != nil {
		e.wdLastProgress = w.Progress()
	}
}

// Watchdog returns the installed stall watchdog, nil when there is none.
func (e *Engine) Watchdog() *Watchdog { return e.watchdog }

// checkStall polls the watchdog at a cycle boundary. It returns a non-nil
// *StallError when the progress counter has not moved for a full window.
func (e *Engine) checkStall() *StallError {
	w := e.watchdog
	p := w.Progress()
	if p != e.wdLastProgress {
		e.wdLastProgress = p
		e.wdLastCycle = e.cycle
		return nil
	}
	if e.cycle-e.wdLastCycle < w.Window {
		return nil
	}
	stall := &StallError{Cycle: e.cycle, Window: w.Window, Progress: p}
	if w.Diagnose != nil {
		stall.Diagnostic = w.Diagnose(e.cycle)
	}
	return stall
}
