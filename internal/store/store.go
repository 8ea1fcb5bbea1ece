package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// Store bundles the WAL, the result warehouse, and the flight-record
// store under one data directory:
//
//	<dir>/wal/wal-XXXXXXXX.log   lifecycle events (jobs, sweeps)
//	<dir>/warehouse.log          finished run results by spec hash
//	<dir>/flights.log            job flight records (post-mortem black boxes)
//
// Open replays the log, folds it to the pending State, and compacts
// the history down to the live records. The owner reads State once at
// startup to re-enqueue owed work, then appends lifecycle events as
// they happen. All append methods are durable on return and safe for
// concurrent use.
type Store struct {
	wal     *WAL
	wh      *Warehouse
	flights *FlightStore
	state   State
}

// Options tunes Open. Zero values select defaults.
type Options struct {
	WAL WALOptions

	// FlightCap bounds retained flight records (<= 0 = default 1024).
	FlightCap int
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: data directory must not be empty")
	}
	wal, events, err := OpenWAL(filepath.Join(dir, "wal"), opts.WAL)
	if err != nil {
		return nil, err
	}
	st := Fold(events)
	// Compact whenever history would otherwise accumulate: the folded
	// live set is the whole truth, so everything else is dead weight a
	// restart should not pay to replay again.
	if len(events) > len(st.PendingJobs)+len(st.PendingSweeps) {
		if err := wal.Compact(st.Live()); err != nil {
			wal.Close()
			return nil, err
		}
	}
	wh, err := OpenWarehouse(dir)
	if err != nil {
		wal.Close()
		return nil, err
	}
	flights, err := OpenFlightStore(dir, opts.FlightCap)
	if err != nil {
		wal.Close()
		wh.Close()
		return nil, err
	}
	return &Store{wal: wal, wh: wh, flights: flights, state: st}, nil
}

// State returns the fold of the log as it stood at Open: the work a
// restarted owner owes. Events appended since Open are not reflected.
func (s *Store) State() State { return s.state }

// Warehouse exposes the result warehouse; nil for a nil store, so
// callers without durability pass the result straight to lookups that
// treat a nil warehouse as empty.
func (s *Store) Warehouse() *Warehouse {
	if s == nil {
		return nil
	}
	return s.wh
}

// Flights exposes the flight-record store.
func (s *Store) Flights() *FlightStore { return s.flights }

// Close closes the WAL, warehouse, and flight store.
func (s *Store) Close() error {
	err := s.wal.Close()
	if werr := s.wh.Close(); err == nil {
		err = werr
	}
	if ferr := s.flights.Close(); err == nil {
		err = ferr
	}
	return err
}

// AppendJobAccepted records an admitted job durably; until a terminal
// event follows, a restart re-enqueues it.
func (s *Store) AppendJobAccepted(id, tenant, specHash string, spec json.RawMessage, label string, timeoutMS int64) error {
	return s.wal.Append(Event{Type: EvJobAccepted, Time: time.Now().UTC(), Job: &JobEvent{
		ID: id, Tenant: tenant, SpecHash: specHash, Spec: spec, Label: label, TimeoutMS: timeoutMS,
	}})
}

// AppendJobDone records a job's successful completion.
func (s *Store) AppendJobDone(id, specHash string) error {
	return s.wal.Append(Event{Type: EvJobDone, Time: time.Now().UTC(),
		Job: &JobEvent{ID: id, SpecHash: specHash}})
}

// AppendJobFailed records a job's terminal failure.
func (s *Store) AppendJobFailed(id, specHash, errMsg string) error {
	return s.wal.Append(Event{Type: EvJobFailed, Time: time.Now().UTC(),
		Job: &JobEvent{ID: id, SpecHash: specHash, Error: errMsg}})
}

// AppendJobCanceled records a client cancellation.
func (s *Store) AppendJobCanceled(id, specHash string) error {
	return s.wal.Append(Event{Type: EvJobCanceled, Time: time.Now().UTC(),
		Job: &JobEvent{ID: id, SpecHash: specHash}})
}

// AppendSweepStarted records an accepted sweep and its unique points.
// cached lists the hashes of points already settled as done at submit
// (answered from a cache), and closed marks the sweep done as well,
// when nothing is left to dispatch. The records go to the log as one
// batch — one write and one fsync however many points were cached —
// and a crash mid-batch replays as a prefix of it.
func (s *Store) AppendSweepStarted(id, tenant string, total int, points []SweepPoint, cached []string, closed bool) error {
	now := time.Now().UTC()
	evs := make([]Event, 0, len(cached)+2)
	evs = append(evs, Event{Type: EvSweepStarted, Time: now,
		Sweep: &SweepEvent{ID: id, Tenant: tenant, Total: total, Points: points}})
	for _, hash := range cached {
		evs = append(evs, pointDone(now, id, hash))
	}
	if closed {
		evs = append(evs, sweepDone(now, id))
	}
	return s.wal.Append(evs...)
}

// AppendPointDone records one sweep point's completion.
func (s *Store) AppendPointDone(sweepID, hash string) error {
	return s.wal.Append(pointDone(time.Now().UTC(), sweepID, hash))
}

// AppendPointFailed records one sweep point's terminal failure.
func (s *Store) AppendPointFailed(sweepID, hash, errMsg string) error {
	return s.wal.Append(Event{Type: EvPointFailed, Time: time.Now().UTC(),
		Sweep: &SweepEvent{ID: sweepID, Hash: hash, Error: errMsg}})
}

// AppendSweepDone records that every point of a sweep settled.
func (s *Store) AppendSweepDone(id string) error {
	return s.wal.Append(sweepDone(time.Now().UTC(), id))
}

func pointDone(t time.Time, sweepID, hash string) Event {
	return Event{Type: EvPointDone, Time: t, Sweep: &SweepEvent{ID: sweepID, Hash: hash}}
}

func sweepDone(t time.Time, id string) Event {
	return Event{Type: EvSweepDone, Time: t, Sweep: &SweepEvent{ID: id}}
}
