// Package prompt implements an interactive owner annotator: it asks
// the paper's labeling question (Section III-A) on a terminal,
// presenting the similarity and benefit context the Sight extension
// showed ("You and stranger name are x/100 similar and he/she provides
// you y/100 benefits ..."), and reads back one of the three risk
// labels.
package prompt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"sightrisk/internal/benefit"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// Annotator prompts for labels over in/out. It implements
// active.Annotator.
type Annotator struct {
	in  *bufio.Reader
	out io.Writer

	snap  *graph.Snapshot
	store *profile.Store
	owner graph.UserID
	theta benefit.Theta

	// Default is returned when input is exhausted or unparsable after
	// MaxAttempts; zero (invalid) makes LabelStranger fall back to
	// Risky.
	Default label.Label
	// MaxAttempts bounds re-prompts per stranger (default 3).
	MaxAttempts int
}

// New builds an interactive annotator for the owner over a snapshot of
// the owner's graph. theta weights the benefit figure shown in the
// prompt (nil means the paper's Table III averages).
func New(in io.Reader, out io.Writer, snap *graph.Snapshot, store *profile.Store, owner graph.UserID, theta benefit.Theta) *Annotator {
	if theta == nil {
		theta = benefit.PaperTheta()
	}
	return &Annotator{
		in:          bufio.NewReader(in),
		out:         out,
		snap:        snap,
		store:       store,
		owner:       owner,
		theta:       theta,
		Default:     label.Risky,
		MaxAttempts: 3,
	}
}

// Question renders the paper's labeling question for the stranger,
// with the similarity and benefit percentages filled in.
func (a *Annotator) Question(s graph.UserID) string {
	sim := 100 * similarity.NS(a.snap, a.owner, s)
	ben := benefit.Percent(a.theta, a.store.Get(s))
	name := fmt.Sprintf("stranger %d", s)
	if p := a.store.Get(s); p != nil {
		if last := p.Attr(profile.AttrLastName); last != "" {
			name = fmt.Sprintf("stranger %d (%s)", s, last)
		}
	}
	return fmt.Sprintf(
		"You and %s are %.0f/100 similar and he/she provides you %.0f/100 benefits\n"+
			"in terms of information you are allowed to see now on his/her profile.\n"+
			"Do you think it might be risky to establish a relationship with %s?\n"+
			"(benefits might increase once you become friends, if privacy settings allow)\n"+
			"  [1] not risky   [2] risky   [3] very risky\n> ",
		name, sim, ben, name)
}

// LabelStranger implements active.Annotator: print the question, read
// an answer, re-prompt on garbage, fall back to Default (or Risky)
// when input runs out.
func (a *Annotator) LabelStranger(s graph.UserID) label.Label {
	attempts := a.MaxAttempts
	if attempts < 1 {
		attempts = 3
	}
	fmt.Fprint(a.out, a.Question(s))
	for try := 0; try < attempts; try++ {
		line, err := a.in.ReadString('\n')
		line = strings.TrimSpace(line)
		if l, ok := Parse(line); ok {
			return l
		}
		if err != nil { // EOF or read error: stop asking
			break
		}
		fmt.Fprintf(a.out, "please answer 1, 2 or 3\n> ")
	}
	if a.Default.Valid() {
		return a.Default
	}
	return label.Risky
}

// Parse interprets a user answer: the digits 1-3 or the label names
// (case-insensitive, with or without spaces).
func Parse(answer string) (label.Label, bool) {
	switch strings.ToLower(strings.ReplaceAll(strings.TrimSpace(answer), " ", "")) {
	case "1", "notrisky", "not", "n", "safe":
		return label.NotRisky, true
	case "2", "risky", "r":
		return label.Risky, true
	case "3", "veryrisky", "very", "v":
		return label.VeryRisky, true
	default:
		return 0, false
	}
}
