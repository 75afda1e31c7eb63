package stress

// Schedule shrinking: ddmin-style greedy deletion. Because an Op is
// fully concrete (no state hidden in the generator), any subsequence of
// a schedule is itself a valid schedule, and Replay is deterministic —
// so "remove a chunk and see if it still fails" is sound.

// Shrink minimizes ops to a (locally) minimal schedule whose Replay
// under cfg still fails, returning the minimal schedule and its
// failure. Any failure counts, not just an identical one: the goal is
// the smallest reproducer of some defect, and chasing a specific error
// identity would keep ops that only mask earlier-firing bugs. Returns
// (nil, nil) if ops does not fail at all.
func Shrink(cfg Config, ops []Op) ([]Op, *Failure) {
	run := func(cand []Op) *Failure {
		res, err := Replay(cfg, cand)
		if err != nil {
			return nil // cfg does not boot: no schedule of it fails
		}
		return res.Failure
	}
	fail := run(ops)
	if fail == nil {
		return nil, nil
	}
	// Everything after the failing op is irrelevant.
	cur := trim(ops, fail)

	n := 2 // number of chunks to split into
	for len(cur) >= 2 {
		chunk := len(cur) / n
		if chunk == 0 {
			chunk = 1
		}
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]Op, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				continue
			}
			if f := run(cand); f != nil {
				cur, fail = trim(cand, f), f
				reduced = true
				break
			}
		}
		if reduced {
			if n > 2 {
				n--
			}
			continue
		}
		if chunk == 1 {
			break // single-op granularity and nothing removable
		}
		n *= 2
		if n > len(cur) {
			n = len(cur)
		}
	}
	fail.Ops = cur
	return cur, fail
}

// trim copies ops truncated just past the failure point.
func trim(ops []Op, f *Failure) []Op {
	end := len(ops)
	if f.OpIndex >= 0 && f.OpIndex+1 < end {
		end = f.OpIndex + 1
	}
	return append([]Op(nil), ops[:end]...)
}
