package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/server"
)

// errStreamTruncated marks an event stream that ended mid-line.
var errStreamTruncated = errors.New("event stream truncated mid-line")

// splitEventLines is a bufio.SplitFunc for Server-Sent Events lines:
// each line ends in "\n" (an optional preceding "\r" is dropped), and
// an unterminated final line is an error instead of a token, so a
// stream cut mid-frame never parses as a shorter valid one.
func splitEventLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	}
	if atEOF && len(data) > 0 {
		return 0, nil, errStreamTruncated
	}
	return 0, nil, nil
}

// readJobEvents consumes a worker's GET /v1/jobs/{id}/events stream
// until the job's terminal event and returns the JobStatus that event
// carries. Each "progress" event is decoded and handed to onProgress;
// keepalive comments, the non-terminal state events ("queued",
// "started") and events it does not know are skipped. The bytes come
// from another process, so every way the stream can fail to reach a
// terminal event — end of stream, a line cut short, undecodable JSON,
// a line or event over maxWorkerBytes, a terminal event whose status
// disagrees with its name — returns a *workerError, so the worker is
// blamed and the point retried.
func readJobEvents(r io.Reader, onProgress func(*server.ProgressView)) (server.JobStatus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4<<10), maxWorkerBytes)
	sc.Split(splitEventLines)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			// A blank line dispatches the event assembled so far.
			switch event {
			case "progress":
				var p server.ProgressView
				if err := json.Unmarshal(data, &p); err != nil {
					return server.JobStatus{}, &workerError{fmt.Errorf("undecodable progress event: %w", err)}
				}
				onProgress(&p)
			case server.StateDone, server.StateFailed, server.StateCanceled:
				var st server.JobStatus
				if err := json.Unmarshal(data, &st); err != nil {
					return server.JobStatus{}, &workerError{fmt.Errorf("undecodable %s event: %w", event, err)}
				}
				if st.State != event {
					return server.JobStatus{}, &workerError{fmt.Errorf("%s event carries job state %q", event, st.State)}
				}
				return st, nil
			}
			event, data = "", data[:0]
			continue
		}
		if line[0] == ':' {
			continue // comment (keepalive ping)
		}
		field, value, _ := bytes.Cut(line, []byte{':'})
		value = bytes.TrimPrefix(value, []byte{' '})
		switch string(field) {
		case "event":
			event = string(value)
		case "data":
			if len(data)+len(value)+1 > maxWorkerBytes {
				return server.JobStatus{}, &workerError{fmt.Errorf("event data exceeds %d bytes", maxWorkerBytes)}
			}
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, value...)
		}
	}
	err := sc.Err()
	switch {
	case err == nil:
		err = io.ErrUnexpectedEOF
	case errors.Is(err, bufio.ErrTooLong):
		err = fmt.Errorf("event stream line exceeds %d bytes", maxWorkerBytes)
	}
	return server.JobStatus{}, &workerError{fmt.Errorf("job event stream ended before a terminal event: %w", err)}
}
