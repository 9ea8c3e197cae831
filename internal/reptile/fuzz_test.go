package reptile

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/seq"
)

// FuzzCorrectDrivers holds the two callers of the one worker loop to the
// same bytes: CorrectAllCtx asking the local index kmer by kmer, and the
// batched driver answering from a hood cache filled through
// fakeBatchSource over that index — at 1 and 3 workers, with the predicted
// first fetch and with every neighborhood arriving through the miss path.
//
// The first byte picks the corrector (D=1 overlap 0, or D=2 overlap 3,
// both over serviceFixture's corpus). The rest is reads separated by 0xFF,
// each derived from a corpus read: two bytes pick it, a third caps its
// length (below a tile included) and with its top bit drops the
// qualities, and every further pair (pos, b) writes base "ACGTN"[b%5] at
// pos with quality b/6.
func FuzzCorrectDrivers(f *testing.F) {
	f.Add([]byte("\x00\x00\x01\x24\x05\x02"))
	f.Add([]byte("\x01\x00\x07\xa4\x10\x04\xff\x01\x00\x0c\xff\x02\x02\x24\x03\x01\x11\x02"))
	f.Add([]byte("\x00\x10\x20\x24\x00\x04\x01\x04\x02\x04\xff\x00\x30\x1e\x1d\x03"))
	corpus, spec := serviceFixture(f)
	var correctors [2]*Corrector
	for i, pd := range [][2]int{{1, 0}, {2, 3}} {
		p := DefaultParams(corpus, 8000)
		p.K, p.D, p.Overlap, p.C, p.Spectrum = spec.K, pd[0], pd[1], min(spec.K, pd[0]+4), spec
		c, err := New(corpus, p)
		if err != nil {
			f.Fatal(err)
		}
		c.ensureQuerier()
		correctors[i] = c
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := correctors[int(data[0])%len(correctors)]
		reads := fuzzDriverReads(corpus, data[1:])
		want, err := c.CorrectAllCtx(ctx, reads, 1)
		if err != nil {
			t.Fatal(err)
		}
		guess := c.predictKmers(prepareReads(reads, c.P))
		for _, workers := range []int{1, 3} {
			if got, err := c.CorrectAllCtx(ctx, reads, workers); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("CorrectAllCtx at %d workers diverges from one worker (err %v)", workers, err)
			}
			for _, predicted := range []bool{true, false} {
				var first []seq.Kmer
				if predicted {
					first = guess
				}
				src := &fakeBatchSource{NeighborSource: c.neigh}
				got, err := c.correctBatched(ctx, src, reads, workers, first)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("D=%d workers=%d predicted=%v: batched driver diverges from CorrectAllCtx (err %v)",
						c.P.D, workers, predicted, err)
				}
			}
		}
	})
}

// fuzzDriverReads decodes FuzzCorrectDrivers' read bytes.
func fuzzDriverReads(corpus []seq.Read, data []byte) []seq.Read {
	var reads []seq.Read
	for _, rec := range bytes.Split(data, []byte{0xFF}) {
		if len(rec) < 3 {
			continue
		}
		r := corpus[(int(rec[0])<<8|int(rec[1]))%len(corpus)].Clone()
		n := min(len(r.Seq), int(rec[2]&0x7f)%64)
		r.Seq, r.Qual = r.Seq[:n], r.Qual[:n]
		if rec[2]&0x80 != 0 {
			r.Qual = nil
		}
		for mut := rec[3:]; len(mut) >= 2 && n > 0; mut = mut[2:] {
			pos := int(mut[0]) % n
			r.Seq[pos] = "ACGTN"[mut[1]%5]
			if r.Qual != nil {
				r.Qual[pos] = mut[1] / 6
			}
		}
		reads = append(reads, r)
	}
	return reads
}
