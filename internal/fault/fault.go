// Package fault provides deterministic fault schedules for the
// simulated MDS cluster: scripted crash/recover events at fixed ticks,
// plus a seeded random MTBF mode that draws exponential failure and
// repair times per rank. Schedules are plain data — the cluster applies
// them through its event queue, so two runs with the same seed and the
// same schedule fail identically.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Kind is the type of a fault event.
type Kind int

// Fault event kinds.
const (
	// Crash takes the rank down at the event tick: it stops serving,
	// its in-flight exports abort, and its subtrees orphan until the
	// recovery window elapses.
	Crash Kind = iota
	// Recover brings the rank back up at the event tick with
	// invalidated heat/trace statistics and no subtrees.
	Recover
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// HottestRank is the wildcard rank in a crash event: the cluster
// substitutes the live rank with the highest current load at the event
// tick (the adversarial crash the failover experiment uses).
const HottestRank = -1

// Event is one scheduled fault.
type Event struct {
	Tick int64
	Rank int // MDS rank, or HottestRank for a crash of the hottest rank
	Kind Kind
	// Path, when non-empty on a Crash event, makes the fault
	// partition-scoped instead of rank-scoped: the cluster crashes
	// whichever rank is authoritative for the path at the event tick
	// (Rank is ignored). This targets a subtree regardless of where the
	// balancer has placed it — the adversarial fault a replicated
	// subtree must survive.
	Path string
}

// Schedule is an ordered list of fault events. The zero value is an
// empty schedule.
type Schedule struct {
	Events []Event
}

// Crash appends a crash of rank at tick and returns the schedule.
func (s *Schedule) Crash(tick int64, rank int) *Schedule {
	s.Events = append(s.Events, Event{Tick: tick, Rank: rank, Kind: Crash})
	return s
}

// CrashHottest appends a crash of the hottest live rank at tick.
func (s *Schedule) CrashHottest(tick int64) *Schedule {
	return s.Crash(tick, HottestRank)
}

// CrashPath appends a partition-scoped crash at tick: whichever rank
// is authoritative for the path when the event fires goes down.
func (s *Schedule) CrashPath(tick int64, path string) *Schedule {
	s.Events = append(s.Events, Event{Tick: tick, Rank: HottestRank, Kind: Crash, Path: path})
	return s
}

// Recover appends a recovery of rank at tick and returns the schedule.
func (s *Schedule) Recover(tick int64, rank int) *Schedule {
	s.Events = append(s.Events, Event{Tick: tick, Rank: rank, Kind: Recover})
	return s
}

// Empty reports whether the schedule has no events.
func (s *Schedule) Empty() bool { return len(s.Events) == 0 }

// Sort orders events by tick, preserving submission order within a
// tick (stable), so applying the schedule through a FIFO event queue
// is deterministic.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].Tick < s.Events[j].Tick
	})
}

// Merge appends the other schedule's events and re-sorts.
func (s *Schedule) Merge(other Schedule) {
	s.Events = append(s.Events, other.Events...)
	s.Sort()
}

// Validate checks the schedule for the mistakes fault scripts actually
// make:
//
//   - negative ticks;
//   - ranks outside [0, ranks) — crash events may instead use
//     HottestRank or a Path, which resolve to a rank at fire time;
//   - a Path on anything but a crash (a recovery must name the rank
//     that is down, not a subtree that has long since moved);
//   - duplicate events: two events at the same tick against the same
//     target (same rank, both wildcards, or the same path) — the second
//     silently no-ops at runtime, which always means a typo'd script;
//   - a recovery with nothing to recover: a Recover for a rank with no
//     strictly-earlier Crash that could have taken it down. Wildcard
//     crashes (hottest or path-scoped) resolve their rank at fire time,
//     so any earlier wildcard makes a later recovery plausible.
func (s *Schedule) Validate(ranks int) error {
	type target struct {
		tick int64
		rank int
		path string
	}
	seen := make(map[target]bool, len(s.Events))
	for _, ev := range s.Events {
		if ev.Tick < 0 {
			return fmt.Errorf("fault: negative tick %d", ev.Tick)
		}
		if ev.Path != "" && ev.Kind != Crash {
			return fmt.Errorf("fault: %s at tick %d names path %q (paths are only valid for crashes)",
				ev.Kind, ev.Tick, ev.Path)
		}
		wildcard := ev.Kind == Crash && (ev.Path != "" || ev.Rank == HottestRank)
		if !wildcard && (ev.Rank < 0 || ev.Rank >= ranks) {
			return fmt.Errorf("fault: %s rank %d out of range [0,%d)", ev.Kind, ev.Rank, ranks)
		}
		t := target{tick: ev.Tick, rank: ev.Rank, path: ev.Path}
		if seen[t] {
			if ev.Path != "" {
				return fmt.Errorf("fault: duplicate events at tick %d for path %q", ev.Tick, ev.Path)
			}
			return fmt.Errorf("fault: duplicate events at tick %d for rank %d", ev.Tick, ev.Rank)
		}
		seen[t] = true
	}
	// Order-sensitive pass: recoveries need an earlier crash. Work on a
	// sorted copy so validation does not depend on submission order.
	sorted := append([]Event(nil), s.Events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Tick < sorted[j].Tick })
	crashed := make(map[int]bool, ranks)
	wildcardAt := int64(-1)
	for _, ev := range sorted {
		switch {
		case ev.Kind == Crash && (ev.Path != "" || ev.Rank == HottestRank):
			if wildcardAt < 0 {
				wildcardAt = ev.Tick
			}
		case ev.Kind == Crash:
			crashed[ev.Rank] = true
		case ev.Kind == Recover:
			if !crashed[ev.Rank] && (wildcardAt < 0 || wildcardAt >= ev.Tick) {
				return fmt.Errorf("fault: recover of rank %d at tick %d before any crash that could take it down",
					ev.Rank, ev.Tick)
			}
		}
	}
	return nil
}

// ParseSpecs parses a comma-separated list of "tick:rank" specs into
// events of the given kind, e.g. "100:1,400:0". For crash events the
// rank may be "hot", selecting the hottest live rank at the crash
// tick, or a "/path", crashing whichever rank is authoritative for the
// path at the crash tick (partition-scoped fault injection).
func ParseSpecs(spec string, kind Kind) (Schedule, error) {
	var s Schedule
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fields := strings.SplitN(part, ":", 2)
		if len(fields) != 2 {
			return Schedule{}, fmt.Errorf("fault: bad %s spec %q (want tick:rank)", kind, part)
		}
		tick, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || tick < 0 {
			return Schedule{}, fmt.Errorf("fault: bad tick in %s spec %q", kind, part)
		}
		var rank int
		if fields[1] == "hot" || strings.HasPrefix(fields[1], "/") {
			if kind != Crash {
				return Schedule{}, fmt.Errorf("fault: %q only valid for crash specs", part)
			}
			if strings.HasPrefix(fields[1], "/") {
				s.Events = append(s.Events, Event{Tick: tick, Rank: HottestRank, Kind: Crash, Path: fields[1]})
				continue
			}
			rank = HottestRank
		} else {
			rank, err = strconv.Atoi(fields[1])
			if err != nil || rank < 0 {
				return Schedule{}, fmt.Errorf("fault: bad rank in %s spec %q", kind, part)
			}
		}
		s.Events = append(s.Events, Event{Tick: tick, Rank: rank, Kind: kind})
	}
	s.Sort()
	return s, nil
}

// MTBFConfig parameterizes the random failure generator.
type MTBFConfig struct {
	// Ranks is the number of MDS ranks that can fail.
	Ranks int
	// MTBF is the mean time between failures per rank, in ticks.
	MTBF float64
	// MTTR is the mean time to repair per failure, in ticks
	// (default: MTBF/10, at least 1).
	MTTR float64
	// Horizon bounds event generation: no event is scheduled at or
	// after this tick.
	Horizon int64
}

// MTBF draws a deterministic crash/recover schedule from the source:
// for each rank, alternating exponential up-times (mean MTBF) and
// down-times (mean MTTR) until the horizon. Crashes that would take
// down the last live rank are skipped, so the cluster always keeps at
// least one survivor to take over orphaned subtrees.
func MTBF(cfg MTBFConfig, src *rng.Source) Schedule {
	var s Schedule
	if cfg.Ranks <= 0 || cfg.MTBF <= 0 || cfg.Horizon <= 0 {
		return s
	}
	mttr := cfg.MTTR
	if mttr <= 0 {
		mttr = cfg.MTBF / 10
	}
	if mttr < 1 {
		mttr = 1
	}
	maxDown := cfg.Ranks - 1
	if maxDown < 1 {
		return s
	}

	// Draw each rank's alternating up/down intervals.
	type span struct {
		crash, recover int64
		rank           int
	}
	var spans []span
	for rank := 0; rank < cfg.Ranks; rank++ {
		rsrc := src.Fork(uint64(rank) + 1)
		t := int64(0)
		for {
			up := expDraw(rsrc, cfg.MTBF)
			crash := t + up
			if crash >= cfg.Horizon {
				break
			}
			down := expDraw(rsrc, mttr)
			rec := crash + down
			if rec >= cfg.Horizon {
				rec = cfg.Horizon - 1
			}
			if rec > crash {
				spans = append(spans, span{crash: crash, recover: rec, rank: rank})
			}
			t = rec
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].crash != spans[j].crash {
			return spans[i].crash < spans[j].crash
		}
		return spans[i].rank < spans[j].rank
	})

	// Admit spans in crash order, dropping those that would exceed the
	// concurrent-failure bound.
	type outage struct{ until int64 }
	var downs []outage
	for _, sp := range spans {
		kept := downs[:0]
		for _, d := range downs {
			if d.until > sp.crash {
				kept = append(kept, d)
			}
		}
		downs = kept
		if len(downs) >= maxDown {
			continue
		}
		downs = append(downs, outage{until: sp.recover})
		s.Crash(sp.crash, sp.rank)
		s.Recover(sp.recover, sp.rank)
	}
	s.Sort()
	return s
}

// expDraw returns an exponential variate with the given mean, rounded
// up to at least one tick.
func expDraw(src *rng.Source, mean float64) int64 {
	u := src.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	v := -mean * math.Log(1-u)
	if v < 1 {
		v = 1
	}
	if v > math.MaxInt32 {
		v = math.MaxInt32
	}
	return int64(v)
}
