package seq

import (
	"context"
	"errors"
	"io"
	"testing"
)

// countingSource yields `chunks` one-read chunks, then nextErr (io.EOF
// when nil), and counts Close calls: the ChunkSource contract does not
// promise an idempotent Close, so the driver must call it exactly once.
type countingSource struct {
	chunks   int
	nextErr  error
	closeErr error
	closes   int
}

func (s *countingSource) Next() ([]Read, error) {
	if s.chunks == 0 {
		if s.nextErr != nil {
			return nil, s.nextErr
		}
		return nil, io.EOF
	}
	s.chunks--
	return []Read{{ID: "r", Seq: []byte("ACGT")}}, nil
}

func (s *countingSource) Close() error {
	s.closes++
	return s.closeErr
}

func TestStreamChunksClosesOnce(t *testing.T) {
	errFn, errNext, errClose, errOpen := errors.New("fn"), errors.New("next"), errors.New("close"), errors.New("open")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		src     *countingSource
		openErr error
		fnErr   error
		want    error
		closes  int
	}{
		{name: "EOF", src: &countingSource{chunks: 2}, closes: 1},
		{name: "EOF, close fails", src: &countingSource{chunks: 2, closeErr: errClose}, want: errClose, closes: 1},
		{name: "fn error", src: &countingSource{chunks: 2, closeErr: errClose}, fnErr: errFn, want: errFn, closes: 1},
		{name: "Next error", src: &countingSource{chunks: 1, nextErr: errNext}, want: errNext, closes: 1},
		{name: "cancelled", ctx: cancelled, src: &countingSource{chunks: 2}, want: context.Canceled, closes: 1},
		{name: "open fails", src: &countingSource{}, openErr: errOpen, want: errOpen, closes: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			open := func() (ChunkSource, error) {
				if tc.openErr != nil {
					return nil, tc.openErr
				}
				return tc.src, nil
			}
			err := StreamChunksCtx(ctx, open, func([]Read) error { return tc.fnErr })
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
			if tc.src.closes != tc.closes {
				t.Errorf("Close called %d times, want %d", tc.src.closes, tc.closes)
			}
		})
	}
}
