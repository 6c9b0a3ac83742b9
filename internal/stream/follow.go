package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"viva/internal/ingest"
	"viva/internal/trace"
)

// Follow is a Source that tails a growing native-format trace file — the
// seam for feeding vivaserve from a writer in another process. It runs
// the regular scan/apply ingest pipeline over a blocking reader that
// polls on EOF instead of stopping, so a half-written line simply waits
// in the scan buffer until the writer finishes it. The stream ends when
// the file's terminal "end" directive arrives (a finished trace) or the
// context is cancelled.
type Follow struct {
	path string
	// poll is the EOF re-check interval (default 200ms).
	poll time.Duration
}

// NewFollow tails the native-format trace file at path.
func NewFollow(path string) *Follow {
	return &Follow{path: path, poll: 200 * time.Millisecond}
}

// errStopFollow aborts the scan from inside the apply stage once the
// terminal directive has been emitted; Run translates it to success.
var errStopFollow = errors.New("stream: follow complete")

// Prime declares whatever resource and edge lines the file already
// contains into the live trace, without blocking for growth. Writers
// emit the catalog prefix first, so a view opened over the live trace
// starts with the full topology; Run re-emits the same declarations as
// ops, which apply as no-ops. Every other line is skipped, malformed or
// not: Run reports those, and the file may end mid-line. A missing file
// is not an error here — the writer may not have started yet.
func (f *Follow) Prime(tr *trace.Trace) error {
	file, err := os.Open(f.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer file.Close()
	app, in := tr.NewAppender(), ingest.NewInterner()
	return ingest.Scan(file, ingest.DialectNative, ingest.Options{Parallelism: 1},
		func(lineno int, kind ingest.LineKind, fields [][]byte) error {
			if kind != ingest.LineEvent {
				return nil
			}
			op, err := trace.ParseOp(lineno, fields, in)
			if err != nil || (op.Kind != OpDeclare && op.Kind != OpEdge) {
				return nil
			}
			if err := app.Apply(op); err != nil {
				return fmt.Errorf("stream: line %d: %v", lineno, err)
			}
			return nil
		})
}

// Run tails the file, emitting each directive as an op until the trace's
// "end" line or ctx cancellation.
func (f *Follow) Run(ctx context.Context, emit func(Op) error) error {
	file, err := os.Open(f.path)
	if err != nil {
		return err
	}
	defer file.Close()
	fr := &followReader{ctx: ctx, r: file, poll: f.poll}
	// Parallelism 1: the tail is latency-bound, not scan-bound, and the
	// serial path applies lines the moment they complete.
	_, err = trace.ScanOps(fr, ingest.Options{Parallelism: 1}, func(op Op) error {
		if err := emit(op); err != nil {
			return err
		}
		if op.Kind == OpEnd {
			return errStopFollow
		}
		return nil
	})
	if errors.Is(err, errStopFollow) {
		return nil
	}
	return err
}

// followReader blocks instead of reporting EOF: while the underlying
// file has no new bytes it sleeps one poll interval and retries, until
// the context is cancelled. EOF is never returned — a followed file has
// no natural end short of its terminal directive.
type followReader struct {
	ctx  context.Context
	r    io.Reader
	poll time.Duration
}

func (fr *followReader) Read(p []byte) (int, error) {
	for {
		n, err := fr.r.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		select {
		case <-fr.ctx.Done():
			return 0, fr.ctx.Err()
		case <-time.After(fr.poll):
		}
	}
}
