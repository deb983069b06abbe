package node

// EncodeWindow reports how many change-log positions a send-time encode for
// dest would cover right now, and whether the pair is synced at all — what
// decides between the encoder's two enumerations, for the external tests
// that must prove they drove both.
func (k *Kernel) EncodeWindow(dest int) (window int, synced bool) {
	sp := k.comp.sentPos[dest]
	return k.comp.pos() - (sp - 1), sp > 0
}
