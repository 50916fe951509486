package experiments

import "testing"

func TestQuickSnapshot(t *testing.T) {
	for _, name := range []string{"table2", "fig10", "fig12", "fig15", "prediction", "overhead", "fig16"} {
		e, _ := LookupExperiment(name)
		text, _, _ := e.Run(Quick())
		t.Log("\n" + text)
	}
	t.Log("\n" + FormatStudy(RunStudy(Quick())))
}
