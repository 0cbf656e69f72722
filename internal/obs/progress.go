package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"time"
)

// Progress emits periodic one-line progress reports for a long batch
// stage ("analyze: 120/500 files (24%), 3450 statements, 61.2 files/s,
// ETA 6s"). Update is safe to call from concurrent workers and rate-
// limits its own output, so it can sit directly in a per-item callback;
// the ETA comes from the moving rate between emitted lines, not the
// lifetime average, so it tracks speedups and slowdowns mid-run. The
// first Update emits immediately, so short runs are not silent until
// Final. A report is a line on a writer (NewProgress) or a record on a
// structured logger (NewProgressLog).
type Progress struct {
	w     io.Writer
	lg    *slog.Logger
	label string
	unit  string
	every time.Duration

	mu       sync.Mutex
	now      func() time.Time // injectable clock for tests
	start    time.Time
	emitted  bool
	lastT    time.Time
	lastDone int
}

// DefaultProgressInterval is how often Progress emits, at most.
const DefaultProgressInterval = 2 * time.Second

// minRateWindow is the smallest interval the moving rate is computed
// over. A Final (or racing Update) arriving microseconds after the last
// emitted line would otherwise divide a tiny item delta by a near-zero
// dt and print an absurd rate and ETA; below the floor the lifetime
// average is used instead.
const minRateWindow = 100 * time.Millisecond

// NewProgress returns a progress reporter writing to w. label prefixes
// each line; unit names the items being counted ("files").
func NewProgress(w io.Writer, label, unit string) *Progress {
	now := time.Now()
	return &Progress{
		w: w, label: label, unit: unit,
		every: DefaultProgressInterval,
		now:   time.Now,
		start: now, lastT: now,
	}
}

// NewProgressLog returns a progress reporter that emits each report as
// an info record on lg: message "progress", the label as "stage", and
// the line's figures as attributes ("done", "total", "unit", and when
// known "statements", "rate" per second and "eta").
func NewProgressLog(lg *slog.Logger, label, unit string) *Progress {
	p := NewProgress(nil, label, unit)
	p.lg = lg
	return p
}

// SetInterval overrides the emit rate limit (tests use a tiny value).
func (p *Progress) SetInterval(d time.Duration) {
	p.mu.Lock()
	p.every = d
	p.mu.Unlock()
}

// Update reports that `done` of `total` items are complete, with an
// auxiliary running count (statements extracted, bytes read; 0 to
// omit). The first call emits unconditionally; afterwards at most one
// line per interval is written.
func (p *Progress) Update(done, total, extra int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	if p.emitted && now.Sub(p.lastT) < p.every {
		return
	}
	p.emitLocked(now, done, total, extra)
}

// Final writes one unconditional closing line.
func (p *Progress) Final(done, total, extra int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emitLocked(p.now(), done, total, extra)
}

func (p *Progress) emitLocked(now time.Time, done, total, extra int) {
	// The moving rate needs a window wide enough to mean something: a
	// Final microseconds after the last Update must fall back to the
	// lifetime average instead of printing a million-items/s spike.
	rate := 0.0
	if dt := now.Sub(p.lastT).Seconds(); dt >= minRateWindow.Seconds() && done > p.lastDone {
		rate = float64(done-p.lastDone) / dt
	} else if dt := now.Sub(p.start).Seconds(); dt > 0 {
		rate = float64(done) / dt
	}
	// eta is -1 when unknown (no rate yet) or moot (nothing left).
	eta := time.Duration(-1)
	if left := total - done; rate > 0 && left > 0 {
		eta = time.Duration(float64(left) / rate * float64(time.Second)).Round(time.Second)
	}
	if p.lg != nil {
		p.logLocked(done, total, extra, rate, eta)
	} else {
		line := fmt.Sprintf("%s: %d/%d %s", p.label, done, total, p.unit)
		if total > 0 {
			line += fmt.Sprintf(" (%.0f%%)", 100*float64(done)/float64(total))
		}
		if extra > 0 {
			line += fmt.Sprintf(", %d statements", extra)
		}
		if rate > 0 {
			line += fmt.Sprintf(", %.1f %s/s", rate, p.unit)
		}
		if eta >= 0 {
			line += fmt.Sprintf(", ETA %s", eta)
		}
		fmt.Fprintln(p.w, line)
	}
	p.emitted = true
	p.lastT = now
	p.lastDone = done
}

func (p *Progress) logLocked(done, total, extra int, rate float64, eta time.Duration) {
	attrs := []any{"stage", p.label, "done", done, "total", total, "unit", p.unit}
	if extra > 0 {
		attrs = append(attrs, "statements", extra)
	}
	if rate > 0 {
		attrs = append(attrs, "rate", math.Round(rate*10)/10)
	}
	if eta >= 0 {
		attrs = append(attrs, "eta", eta.String())
	}
	p.lg.Info("progress", attrs...)
}

// ProgressAggregator folds per-source progress into one Progress line —
// the cross-worker view of a distributed stage, where each map worker
// (in-process shard goroutine or child process) reports only its own
// done count. Report takes absolute per-source values, so workers can
// re-report freely (including after a driver resume, where finished
// shards report their totals once) and the aggregate never double
// counts.
type ProgressAggregator struct {
	p     *Progress
	total int

	mu    sync.Mutex
	done  []int
	extra []int
}

// NewProgressAggregator returns an aggregator over `sources` independent
// progress sources whose combined work is `total` items, reporting
// through p.
func NewProgressAggregator(p *Progress, sources, total int) *ProgressAggregator {
	return &ProgressAggregator{
		p:     p,
		total: total,
		done:  make([]int, sources),
		extra: make([]int, sources),
	}
}

// Report records that the given source has completed `done` items with
// `extra` auxiliary units so far (absolute values, not deltas), and
// forwards the cross-source sums to the underlying Progress. Safe for
// concurrent use from every source.
func (a *ProgressAggregator) Report(source, done, extra int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done[source] = done
	a.extra[source] = extra
	sumDone, sumExtra := 0, 0
	for i := range a.done {
		sumDone += a.done[i]
		sumExtra += a.extra[i]
	}
	// Emit while still holding the lock: two racing Reports that computed
	// sums S1 < S2 could otherwise reach the Progress in the wrong order
	// and print an aggregate that goes backwards.
	a.p.Update(sumDone, a.total, sumExtra)
}

// Final emits the closing line with the current cross-source sums.
func (a *ProgressAggregator) Final() {
	a.mu.Lock()
	defer a.mu.Unlock()
	sumDone, sumExtra := 0, 0
	for i := range a.done {
		sumDone += a.done[i]
		sumExtra += a.extra[i]
	}
	a.p.Final(sumDone, a.total, sumExtra)
}
