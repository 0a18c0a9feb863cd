package blast

import "repro/internal/cpuid"

func init() {
	if cpuid.HasAVX2() {
		vectorRow = bandRowAVX2
	}
}

// bandRowAVX2 is bandRow on the vectorLanes lanes of a row, eight to a
// register, for a band and gap costs vectorFits accepts. It computes
// E and H′ = max(0, match, E) for every lane from the row above, with
// lanes outside [cLo, cHi] held at H′ = 0. Then F is a prefix maximum,
// f_c = max over c′ < c of H′_c′ − open − (c−1−c′)·extend, taken in
// shift-and-max steps of 1, 2, 4, 8 and 16 lanes. That is the scalar
// recurrence exactly when 0 ≤ extend ≤ open: an H that came from F never
// opens a better gap than extending that F. When no H′ exceeds open,
// every F is at most 0, so no F can raise an H, and the steps are
// skipped. H = max(H′, F) in range, and the other lanes get their
// off-subject or past-band values. Scores are gathered from scores by
// res[c]. It reads lanes 0 to vectorLanes of the row above (the
// vectorStride·8 bytes before row) and vectorLanes of res, and writes
// vectorStride H and E lanes at row.
//
//go:noescape
func bandRowAVX2(row, res *int32, scores *[256]int32, cLo, cHi, width int, open, extend int32) (best int32, at int)
