package prompt

import (
	"strings"
	"testing"

	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
)

func world(t *testing.T) (*graph.Snapshot, *profile.Store, graph.UserID, graph.UserID) {
	t.Helper()
	g := graph.New()
	owner, friend, stranger := graph.UserID(1), graph.UserID(2), graph.UserID(3)
	if err := g.AddEdge(owner, friend); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(friend, stranger); err != nil {
		t.Fatal(err)
	}
	store := profile.NewStore()
	p := profile.NewProfile(stranger)
	p.SetAttr(profile.AttrLastName, "Rossi-1")
	p.SetVisible(profile.ItemPhoto, true)
	store.Put(p)
	return g.Snapshot(), store, owner, stranger
}

func TestParse(t *testing.T) {
	cases := map[string]struct {
		want label.Label
		ok   bool
	}{
		"1": {label.NotRisky, true}, "2": {label.Risky, true}, "3": {label.VeryRisky, true},
		"not risky": {label.NotRisky, true}, "RISKY": {label.Risky, true},
		"Very Risky": {label.VeryRisky, true}, "v": {label.VeryRisky, true},
		" 2 ": {label.Risky, true},
		"":    {0, false}, "4": {0, false}, "maybe": {0, false},
	}
	for in, want := range cases {
		got, ok := Parse(in)
		if ok != want.ok || got != want.want {
			t.Errorf("Parse(%q) = (%v, %v), want (%v, %v)", in, got, ok, want.want, want.ok)
		}
	}
}

func TestQuestionContainsContext(t *testing.T) {
	g, store, owner, stranger := world(t)
	a := New(strings.NewReader(""), &strings.Builder{}, g, store, owner, nil)
	q := a.Question(stranger)
	for _, want := range []string{"Rossi-1", "/100 similar", "/100 benefits", "[1] not risky"} {
		if !strings.Contains(q, want) {
			t.Fatalf("question missing %q:\n%s", want, q)
		}
	}
}

func TestLabelStrangerReadsAnswer(t *testing.T) {
	g, store, owner, stranger := world(t)
	var out strings.Builder
	a := New(strings.NewReader("3\n"), &out, g, store, owner, nil)
	if got := a.LabelStranger(stranger); got != label.VeryRisky {
		t.Fatalf("label = %v, want very risky", got)
	}
	if !strings.Contains(out.String(), "risky to establish a relationship") {
		t.Fatal("question not printed")
	}
}

func TestLabelStrangerRepromptsOnGarbage(t *testing.T) {
	g, store, owner, stranger := world(t)
	var out strings.Builder
	a := New(strings.NewReader("banana\n1\n"), &out, g, store, owner, nil)
	if got := a.LabelStranger(stranger); got != label.NotRisky {
		t.Fatalf("label = %v, want not risky after re-prompt", got)
	}
	if !strings.Contains(out.String(), "please answer") {
		t.Fatal("re-prompt not printed")
	}
}

func TestLabelStrangerFallsBackOnEOF(t *testing.T) {
	g, store, owner, stranger := world(t)
	a := New(strings.NewReader(""), &strings.Builder{}, g, store, owner, nil)
	a.Default = label.VeryRisky
	if got := a.LabelStranger(stranger); got != label.VeryRisky {
		t.Fatalf("label = %v, want configured default", got)
	}
	b := New(strings.NewReader(""), &strings.Builder{}, g, store, owner, nil)
	b.Default = 0 // invalid: falls back to Risky
	if got := b.LabelStranger(stranger); got != label.Risky {
		t.Fatalf("label = %v, want risky fallback", got)
	}
}

func TestLabelStrangerGivesUpAfterMaxAttempts(t *testing.T) {
	g, store, owner, stranger := world(t)
	a := New(strings.NewReader("x\ny\nz\nw\n1\n"), &strings.Builder{}, g, store, owner, nil)
	a.MaxAttempts = 2
	if got := a.LabelStranger(stranger); got != label.Risky {
		t.Fatalf("label = %v, want default after giving up", got)
	}
}
