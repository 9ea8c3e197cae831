package faultinject

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsPassthrough(t *testing.T) {
	var buf bytes.Buffer
	if w := Writer("x", &buf); w != io.Writer(&buf) {
		t.Error("disabled Writer did not return its argument")
	}
	r := strings.NewReader("abc")
	if got := Reader("x", r); got != io.Reader(r) {
		t.Error("disabled Reader did not return its argument")
	}
	f, err := Create("x", filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*os.File); !ok {
		t.Errorf("disabled Create returned %T, want *os.File", f)
	}
	f.Close()
	if err := Check("x", OpWrite); err != nil {
		t.Errorf("disabled Check = %v", err)
	}
}

func TestNthAndSticky(t *testing.T) {
	defer Enable(&Rule{Site: "s", Op: OpWrite, Nth: 2})()
	var buf bytes.Buffer
	w := Writer("s", &buf)
	if _, err := w.Write([]byte("a")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := w.Write([]byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: err = %v, want ErrInjected", err)
	}
	if _, err := w.Write([]byte("c")); err != nil {
		t.Fatalf("write 3 (non-sticky rule must burn out): %v", err)
	}

	defer Enable(&Rule{Site: "s", Op: OpWrite, Nth: 2, Sticky: true})()
	w = Writer("s", &buf)
	w.Write([]byte("a"))
	for i := 0; i < 3; i++ {
		if _, err := w.Write([]byte("b")); !errors.Is(err, ErrInjected) {
			t.Fatalf("sticky write %d: err = %v, want ErrInjected", i+2, err)
		}
	}
}

func TestShortWriteLies(t *testing.T) {
	defer Enable(&Rule{Site: "s", Op: OpWrite, Short: 2})()
	var buf bytes.Buffer
	n, err := Writer("s", &buf).Write([]byte("hello"))
	if n != 2 || err != nil {
		t.Fatalf("short write = (%d, %v), want (2, nil)", n, err)
	}
	if buf.Len() != 0 {
		t.Errorf("short write leaked %d bytes to the sink", buf.Len())
	}
}

func TestTornWriteLandsPrefix(t *testing.T) {
	defer Enable(&Rule{Site: "s", Op: OpWrite, Torn: 3})()
	var buf bytes.Buffer
	n, err := Writer("s", &buf).Write([]byte("hello"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = (%d, %v), want (3, ErrInjected)", n, err)
	}
	if got := buf.String(); got != "hel" {
		t.Errorf("torn write landed %q, want %q", got, "hel")
	}
}

func TestReadError(t *testing.T) {
	boom := errors.New("EIO")
	defer Enable(&Rule{Site: "s", Op: OpRead, Err: boom})()
	r := Reader("s", strings.NewReader("abc"))
	if _, err := r.Read(make([]byte, 3)); !errors.Is(err, boom) {
		t.Fatalf("read err = %v, want EIO", err)
	}
}

func TestSiteAndOpFiltering(t *testing.T) {
	defer Enable(&Rule{Site: "only", Op: OpSync})()
	if err := Check("other", OpSync); err != nil {
		t.Errorf("mismatched site fired: %v", err)
	}
	if err := Check("only", OpWrite); err != nil {
		t.Errorf("mismatched op fired: %v", err)
	}
	if err := Check("only", OpSync); err == nil {
		t.Error("matching site+op did not fire")
	}
}

func TestFileDecorator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	defer Enable(&Rule{Site: "f", Op: OpSync})()
	f, err := Create("f", path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v, want ErrInjected", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "data" {
		t.Fatalf("file content = %q, %v", got, err)
	}
}

func TestEnableFromEnv(t *testing.T) {
	if err := EnableFromEnv("spill.write:write:nth=2:torn=5,kspc.sync:sync:err=EIO"); err != nil {
		t.Fatal(err)
	}
	defer active.Store(nil)
	p := active.Load()
	if p == nil || len(p.rules) != 2 {
		t.Fatalf("plan = %+v, want 2 rules", p)
	}
	r := p.rules[0]
	if r.Site != "spill.write" || r.Op != OpWrite || r.Nth != 2 || r.Torn != 5 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = p.rules[1]
	if r.Site != "kspc.sync" || r.Op != OpSync || r.Err == nil || r.Err.Error() != "EIO" {
		t.Errorf("rule 1 = %+v", r)
	}

	for _, bad := range []string{
		"justasite",
		"s:badop",
		"s:open", // no site opens through the seam, so no rule may arm on it
		"s:write:nth=0",
		"s:write:short=x",
		"s:write:torn=1:kill", // two actions
		"s:write:frob=1",
	} {
		if err := EnableFromEnv(bad); err == nil {
			t.Errorf("EnableFromEnv(%q) accepted a bad spec", bad)
		}
	}
	if err := EnableFromEnv("  "); err != nil {
		t.Errorf("blank spec: %v", err)
	}
}

func TestDelayProceeds(t *testing.T) {
	defer Enable(&Rule{Site: "s", Op: OpWrite, Delay: 10 * time.Millisecond, Sticky: true})()
	var buf bytes.Buffer
	start := time.Now()
	n, err := Writer("s", &buf).Write([]byte("slow"))
	if n != 4 || err != nil {
		t.Fatalf("delayed write = (%d, %v)", n, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("delay rule did not sleep")
	}
	if buf.String() != "slow" {
		t.Errorf("delayed write landed %q", buf.String())
	}
}

func TestPanicAction(t *testing.T) {
	defer Enable(&Rule{Site: "s", Op: OpAny, Panic: true})()
	defer func() {
		if recover() == nil {
			t.Error("panic rule did not panic")
		}
	}()
	Check("s", OpWrite)
}

// TestDisabledIsAllocationFree pins the zero-cost contract: with no
// rules armed, Check and the decorators must not allocate — the seam is
// compiled into hot I/O paths (spill, merge, publish, every request)
// and may cost exactly one atomic load when disabled.
func TestDisabledIsAllocationFree(t *testing.T) {
	if Enabled() {
		t.Fatal("rules armed; disabled-path test cannot run")
	}
	var buf bytes.Buffer
	w := Writer("s", &buf)
	r := Reader("s", &buf)
	p := []byte("x")
	if allocs := testing.AllocsPerRun(100, func() {
		Check("s", OpWrite)
		w.Write(p)
		r.Read(p)
		buf.Reset()
	}); allocs != 0 {
		t.Errorf("disabled fault seam allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkCheckDisabled is the cost of an armed-off fault site: one
// atomic pointer load.
func BenchmarkCheckDisabled(b *testing.B) {
	if Enabled() {
		b.Fatal("rules armed")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Check("bench", OpWrite); err != nil {
			b.Fatal(err)
		}
	}
}
