package gc

import "fmt"

// RecoveryLine is the simple coordinated scheme of Bhargava-Lian and the
// Elnozahy et al. survey (the paper's references [5, 8]): a coordinator
// periodically computes the recovery line for the failure of all processes
// (F = Π) and discards every checkpoint strictly behind the line. Line
// members and everything after them are kept.
//
// The scheme needs control messages, collects fewer checkpoints than
// Theorem 1 (checkpoints after the all-faulty line can still be obsolete),
// and — as the paper notes — bounds nothing: the all-faulty line can lag
// arbitrarily far behind.
type RecoveryLine struct{}

// NewRecoveryLine returns the all-faulty recovery-line collector.
func NewRecoveryLine() *RecoveryLine { return &RecoveryLine{} }

// Name implements Global.
func (*RecoveryLine) Name() string { return "recovery-line" }

// Collect implements Global.
func (*RecoveryLine) Collect(v View) error {
	all := make([]int, v.N())
	for i := range all {
		all[i] = i
	}
	// With every process faulty no component is volatile: the line is the
	// largest stored checkpoint of each process that no last stable
	// checkpoint of another causally precedes.
	line, err := ComputeLine(v, all)
	if err != nil {
		return err
	}
	for i := 0; i < v.N(); i++ {
		store := v.Store(i)
		for _, idx := range store.Indices() {
			if idx < line[i] {
				if err := store.Delete(idx); err != nil {
					return fmt.Errorf("gc: recovery-line: %w", err)
				}
			}
		}
	}
	return nil
}
