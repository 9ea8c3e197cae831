package a

import "fmt"

type T struct{ buf []byte }

func sink(v interface{})    {}
func take(f func() int) int { return f() }

//repro:noalloc
func Bad(dst []byte, s string, p *T, n int) []byte {
	fmt.Println(s) // want `calls fmt\.Println`
	msg := s + "!" // want `concatenates strings`
	msg += "?"     // want `concatenates strings`
	_ = msg
	_ = take(func() int { return len(dst) }) // want `contains a closure`
	out := append(dst, 'x')                  // want `appends into a different slice`
	sink(p)                                  // ok: pointers box without allocating
	sink(n)                                  // want `boxes a int`
	return out
}

//repro:noalloc
func Good(dst []byte, p *T) []byte {
	dst = append(dst, 'x')
	if cap(dst) < 8 {
		dst = make([]byte, 8) // make is the documented grow path, not flagged
	}
	sink(p)
	return dst
}

//repro:noalloc
func Hatch(dst []byte) []byte {
	tmp := append(dst, 'x')                  //repro:lint-ok noalloc deliberate copy, caller keeps dst
	_ = take(func() int { return len(tmp) }) //repro:lint-ok noalloc take does not retain its argument
	return tmp
}

//repro:noalloc
func HatchForOthers(dst []byte) []byte {
	tmp := append(dst, 'x') //repro:lint-ok shadow noalloc is only a word of the reason // want `appends into a different slice`
	return tmp
}

// Unannotated functions allocate freely.
func Unannotated(s string) string {
	f := func() string { return s + "!" }
	return fmt.Sprintf("%s", f())
}
