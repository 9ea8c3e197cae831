package remote

// SetMaxFrameKmers and SetMaxAnswerBytes let the external tests shrink
// the wire limits to sizes a small fixture can cross; each returns the
// function that restores the production value.

func SetMaxFrameKmers(n int) (restore func()) {
	old := maxFrameKmers
	maxFrameKmers = n
	return func() { maxFrameKmers = old }
}

func SetMaxAnswerBytes(n int64) (restore func()) {
	old := maxAnswerBytes
	maxAnswerBytes = n
	return func() { maxAnswerBytes = old }
}
