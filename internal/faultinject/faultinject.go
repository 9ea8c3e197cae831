// Package faultinject is the repository's fault-injection seam: named
// call sites in the I/O paths (spectrum store writes, spill runs,
// checkpoint manifests, the daemon's request loop) consult a
// process-global plan of trigger rules and, when a rule matches, fail
// the operation in a controlled way — return an error, lie about a
// short write, tear a write at byte K, sleep, panic, or SIGKILL the
// process. Disabled (the default, and the only production state) every
// instrumented site costs one atomic pointer load and zero allocations;
// decorators return their argument untouched, so the hot path is the
// undecorated os.File / io.Writer.
//
// Tests install a plan with Enable; harnesses driving a real binary set
// the REPRO_FAULTS environment variable, parsed by EnableFromEnv from
// cli.Main. The grammar is comma-separated rules of colon-separated
// fields:
//
//	site:op[:nth=N][:action]
//
// where site is the instrumented call-site name ("*" matches all), op
// is one of create, read, write, sync, close, rename, remove or
// "*", nth=N arms the rule on the Nth matching operation (1-based,
// default 1; "nth=N+" keeps it armed from then on), and action is one
// of:
//
//	err[=MSG]  fail the operation with ErrInjected (or MSG)   [default]
//	short=K    report only K bytes written, nil error (a lying sink)
//	torn=K     write K bytes for real, then fail (a torn write)
//	delay=DUR  sleep DUR, then proceed normally (slow I/O)
//	panic      panic at the call site
//	kill       SIGKILL the process (crash simulation: no deferred
//	           cleanup, no flushes)
//
// Example: REPRO_FAULTS='spill:write:nth=6:kill' kills the process
// during the sixth spill-file write.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names an instrumented call site. Instrumentation points pass one
// of the declared Site constants below; the faultsite analyzer
// (internal/lint/faultsite) checks every constant-valued site argument
// against this registry, so a typo'd site — which would silently never
// match any REPRO_FAULTS rule — is a vet error, not a dead test knob.
// Rule.Site stays a plain string because it is parsed from the
// environment and supports the "*" wildcard.
type Site string

// The declared fault sites. Adding an instrumentation point means adding
// a constant here — the analyzer picks the registry up from this
// package's export data, no analyzer change needed.
const (
	// SiteKSPC covers spectrum store writes: the KSPC column encode, the
	// pre-rename fsync, and the atomic rename into place.
	SiteKSPC Site = "kspc"
	// SiteKSPCDir is the store's parent-directory fsync after the rename.
	SiteKSPCDir Site = "kspc.dir"
	// SiteSpill covers spill-run file creation and writes in the
	// out-of-core counter.
	SiteSpill Site = "spill"
	// SiteMerge covers every read of a spill run: the k-way merge, and a
	// resume's revalidation of the runs its manifest lists (the same
	// reader), where a fault fails NewStreamBuilder instead of Build.
	SiteMerge Site = "merge"
	// SiteManifest covers checkpoint manifest creation, write and rename.
	SiteManifest Site = "manifest"
	// SiteManifestDir is the manifest's parent-directory fsync.
	SiteManifestDir Site = "manifest.dir"
	// SiteServeRequest is the daemon's per-request hook.
	SiteServeRequest Site = "serve.request"
)

// Op classifies an instrumented operation.
type Op uint8

const (
	OpAny Op = iota
	OpCreate
	OpRead
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
)

var opNames = map[string]Op{
	"*": OpAny, "create": OpCreate, "read": OpRead,
	"write": OpWrite, "sync": OpSync, "close": OpClose,
	"rename": OpRename, "remove": OpRemove,
}

// ErrInjected is the default failure returned by a triggered rule.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule is one trigger: when an instrumented operation matches Site and
// Op for the Nth time, the configured action fires.
type Rule struct {
	// Site names the instrumented call site; "" or "*" matches every site.
	Site string
	// Op restricts the rule to one operation kind; OpAny matches all.
	Op Op
	// Nth arms the rule on the Nth matching operation (1-based; 0 means 1).
	Nth int64
	// Sticky keeps the rule firing on every matching operation at or
	// after the Nth, instead of exactly once.
	Sticky bool

	// Err is the failure to return (nil selects ErrInjected). Ignored by
	// the Short action, which lies with a nil error by design.
	Err error
	// Short, when > 0 on a write, reports min(Short, len(p)) bytes
	// written with a nil error — the io.Writer contract violation a
	// broken sink can commit. Nothing reaches the underlying writer.
	Short int
	// Torn, when > 0 on a write, writes the first min(Torn, len(p))
	// bytes to the underlying writer for real, then fails — the
	// crash-consistency case where bytes landed before the error.
	Torn int
	// Delay sleeps before proceeding normally (slow I/O); combinable
	// with nothing else — a delaying rule never fails the operation.
	Delay time.Duration
	// Panic panics at the call site instead of returning an error.
	Panic bool
	// Kill SIGKILLs the process at the call site: no deferred cleanup,
	// no buffer flushes — the honest crash.
	Kill bool

	// hits counts matching operations observed so far.
	hits atomic.Int64
}

// plan is the installed rule set; nil means disabled.
type plan struct {
	rules []*Rule
}

var active atomic.Pointer[plan]

// Enabled reports whether a fault plan is installed.
func Enabled() bool { return active.Load() != nil }

// Enable installs rules as the process-wide fault plan, replacing any
// previous plan, and returns a func that disables injection again.
// Tests defer the returned func; binaries driven via REPRO_FAULTS never
// disable.
func Enable(rules ...*Rule) (disable func()) {
	active.Store(&plan{rules: rules})
	return func() { active.Store(nil) }
}

// check consults the plan for (site, op) and returns the rule to apply,
// or nil. The w==nil caller (non-write operations) never sees Short/Torn
// rules misfire because those only make sense on writes, which pass w.
func check(site Site, op Op) *Rule {
	p := active.Load()
	if p == nil {
		return nil
	}
	for _, r := range p.rules {
		if r.Site != "" && r.Site != "*" && r.Site != string(site) {
			continue
		}
		if r.Op != OpAny && op != OpAny && r.Op != op {
			continue
		}
		nth := r.Nth
		if nth <= 0 {
			nth = 1
		}
		h := r.hits.Add(1)
		if h == nth || (r.Sticky && h > nth) {
			return r
		}
	}
	return nil
}

// fire applies a triggered rule's terminal action (everything except
// Short/Torn, which only writers interpret) and returns the error to
// surface. Delay rules sleep and return nil.
func (r *Rule) fire(site Site) error {
	switch {
	case r.Kill:
		killSelf()
		return nil // unreachable on platforms with signals
	case r.Panic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	case r.Delay > 0:
		time.Sleep(r.Delay)
		return nil
	}
	if r.Err != nil {
		return r.Err
	}
	return fmt.Errorf("%w at %s", ErrInjected, site)
}

// Check is the bare instrumentation hook for sites without a byte
// stream (request handling, directory syncs): it returns the injected
// error, or nil. Disabled cost: one atomic load.
//
//repro:noalloc
func Check(site Site, op Op) error {
	r := check(site, op)
	if r == nil {
		return nil
	}
	return r.fire(site)
}

// File is the slice of *os.File the instrumented code paths use — they
// only write what they create; the decorator implements it, and so does
// *os.File itself.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Name() string
	Chmod(mode os.FileMode) error
}

var _ File = (*os.File)(nil)

// Create is os.Create behind the seam: rules on (site, create) can fail
// it; the returned File carries the site so read/write/sync/close rules
// apply to subsequent operations. Disabled, it returns the *os.File
// itself.
func Create(site Site, path string) (File, error) {
	if !Enabled() {
		return os.Create(path)
	}
	if err := Check(site, OpCreate); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &file{f: f, site: site}, nil
}

// Rename is os.Rename behind the seam.
func Rename(site Site, oldpath, newpath string) error {
	if err := Check(site, OpRename); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// Writer decorates w with the site's write rules; disabled, it returns
// w itself (no wrapper allocation).
func Writer(site Site, w io.Writer) io.Writer {
	if !Enabled() {
		return w
	}
	return &writer{w: w, site: site}
}

// Reader decorates r with the site's read rules; disabled, it returns
// r itself.
func Reader(site Site, r io.Reader) io.Reader {
	if !Enabled() {
		return r
	}
	return &reader{r: r, site: site}
}

// writeThrough applies a triggered write rule against dst: Short lies,
// Torn writes a prefix then fails, everything else delegates to fire.
func writeThrough(r *Rule, site Site, dst io.Writer, p []byte) (int, error) {
	switch {
	case r.Short > 0:
		return min(r.Short, len(p)), nil
	case r.Torn > 0:
		n, err := dst.Write(p[:min(r.Torn, len(p))])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: torn write at %s", ErrInjected, site)
	}
	if err := r.fire(site); err != nil {
		return 0, err
	}
	return dst.Write(p) // delay rules proceed normally
}

type writer struct {
	w    io.Writer
	site Site
}

func (w *writer) Write(p []byte) (int, error) {
	if r := check(w.site, OpWrite); r != nil {
		return writeThrough(r, w.site, w.w, p)
	}
	return w.w.Write(p)
}

type reader struct {
	r    io.Reader
	site Site
}

func (r *reader) Read(p []byte) (int, error) {
	if rule := check(r.site, OpRead); rule != nil {
		if err := rule.fire(r.site); err != nil {
			return 0, err
		}
	}
	return r.r.Read(p)
}

// file decorates an *os.File with the site's rules on every operation.
type file struct {
	f    *os.File
	site Site
}

func (f *file) Write(p []byte) (int, error) {
	if r := check(f.site, OpWrite); r != nil {
		return writeThrough(r, f.site, f.f, p)
	}
	return f.f.Write(p)
}

func (f *file) Sync() error {
	if err := Check(f.site, OpSync); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *file) Close() error {
	if err := Check(f.site, OpClose); err != nil {
		f.f.Close() // the descriptor must not leak even when the close "fails"
		return err
	}
	return f.f.Close()
}

func (f *file) Name() string                 { return f.f.Name() }
func (f *file) Chmod(mode os.FileMode) error { return f.f.Chmod(mode) }

// EnableFromEnv parses spec (the REPRO_FAULTS grammar, see the package
// comment) and installs the plan. An empty spec is a no-op. Parse
// errors are returned without installing anything.
func EnableFromEnv(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	var rules []*Rule
	for _, rs := range strings.Split(spec, ",") {
		r, err := parseRule(rs)
		if err != nil {
			return fmt.Errorf("faultinject: rule %q: %w", rs, err)
		}
		rules = append(rules, r)
	}
	Enable(rules...)
	return nil
}

func parseRule(s string) (*Rule, error) {
	fields := strings.Split(strings.TrimSpace(s), ":")
	if len(fields) < 2 {
		return nil, errors.New("want site:op[:nth=N][:action]")
	}
	r := &Rule{Site: fields[0]}
	op, ok := opNames[fields[1]]
	if !ok {
		return nil, fmt.Errorf("unknown op %q", fields[1])
	}
	r.Op = op
	action := false
	for _, f := range fields[2:] {
		key, val, _ := strings.Cut(f, "=")
		switch key {
		case "nth":
			if strings.HasSuffix(val, "+") {
				r.Sticky = true
				val = strings.TrimSuffix(val, "+")
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad nth %q", val)
			}
			r.Nth = n
			continue
		case "err":
			if val != "" {
				r.Err = errors.New(val)
			}
		case "short":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad short %q", val)
			}
			r.Short = n
		case "torn":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad torn %q", val)
			}
			r.Torn = n
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("bad delay %q", val)
			}
			r.Delay = d
		case "panic":
			r.Panic = true
		case "kill":
			r.Kill = true
		default:
			return nil, fmt.Errorf("unknown field %q", f)
		}
		if action {
			return nil, errors.New("multiple actions")
		}
		action = true
	}
	return r, nil
}
