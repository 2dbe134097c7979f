package twigopt

// ResetMemo empties the selection table, so a benchmark iteration
// times a cold analysis.
func ResetMemo() {
	memo.Lock()
	memo.entries = nil
	memo.Unlock()
}
