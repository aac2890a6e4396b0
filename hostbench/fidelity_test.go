package main

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/workloads"
)

// fidelitySeed is deliberately not the default seed the golden digests
// pin.
const fidelitySeed = 7

// tableCell returns the cell under header of the row whose leading cells
// are key, in the first table of experiment id at fidelitySeed.
func tableCell(t *testing.T, id, header string, key ...string) string {
	t.Helper()
	res, err := experiments.Run(id, experiments.Options{Seed: fidelitySeed, SeedSet: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	col := -1
	for i, h := range tab.Headers {
		if h == header {
			col = i
		}
	}
	for _, row := range tab.Rows {
		match := col >= 0
		for i, k := range key {
			match = match && row[i] == k
		}
		if match {
			return row[col]
		}
	}
	t.Fatalf("%s has no cell %v/%s", id, key, header)
	return ""
}

func newPass() *pass {
	return &pass{r: newRecorder(false), d: newDigest(), seed: fidelitySeed}
}

func TestFidelityFig4Cell(t *testing.T) {
	res, err := newPass().microCell(costmodel.SPML, 250<<8, map[int]*microWarm{})
	if err != nil {
		t.Fatal(err)
	}
	got := report.FormatFactor(float64(res.tracked) / float64(res.ideal))
	if want := tableCell(t, "fig4", "250MB", "SPML"); got != want {
		t.Errorf("Fig. 4 SPML/250MB: benchmark %s, oohbench %s", got, want)
	}
}

func TestFidelityFig8Cell(t *testing.T) {
	res, err := newPass().criuCell("pca", costmodel.SPML)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s [%s]", report.FormatDuration(res.stats.Total), report.FormatDuration(res.stats.MD))
	if want := tableCell(t, "fig8", "SPML", "pca"); got != want {
		t.Errorf("Fig. 8 pca/SPML: benchmark %s, oohbench %s", got, want)
	}
}

func TestFidelityFig5Cell(t *testing.T) {
	p := newPass()
	res, err := p.gcCell("gcbench", workloads.Medium, costmodel.SPML, newPlanes().cell(0))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s [%s]", report.FormatDuration(res.gcTime), report.FormatDuration(res.firstGC))
	if want := tableCell(t, "fig5", "SPML", "gcbench", "medium"); got != want {
		t.Errorf("Fig. 5 gcbench/medium/SPML: benchmark %s, oohbench %s", got, want)
	}
	if want := tableCell(t, "fig5", "cycles", "gcbench", "medium"); fmt.Sprint(len(res.cycles)) != want {
		t.Errorf("Fig. 5 gcbench/medium cycles: benchmark %d, oohbench %s", len(res.cycles), want)
	}
}
