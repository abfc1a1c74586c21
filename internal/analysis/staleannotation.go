package analysis

// StaleAnnotationAnalyzer closes the escape-hatch audit loop: every
// suppression directive (//next700:allowalloc, allowwait, allowabort,
// lockorder, locked) must have actually suppressed — or scoped out — at least one would-be finding of its owning
// analyzer during this run. A directive that fires on nothing is rot: the
// code it once excused has been fixed or deleted, and the annotation now
// only misleads readers into thinking the contract is still being waived.
//
// The pass must run after the analyzers it audits (analysis.All keeps it
// last); a directive is only judged when its owner actually ran, so a
// single-analyzer corpus run does not call every other verb stale. There is
// deliberately no escape hatch for this analyzer — a stale suppression is
// deleted, not suppressed.
var StaleAnnotationAnalyzer = &Analyzer{
	Name: "staleannotation",
	Doc:  "every //next700: suppression must still suppress a finding; stale ones must be deleted",
	Run:  runStaleAnnotation,
}

func runStaleAnnotation(pass *Pass) error {
	prog := pass.Prog
	ann := prog.Annotations()
	for _, d := range ann.All {
		if !suppressionVerbs[d.Verb] {
			continue // the hotpath marker is a root, not a suppression
		}
		if !prog.Ran(verbOwner[d.Verb]) {
			continue // owner didn't look; can't judge
		}
		if ann.Used(d) {
			continue
		}
		pass.Reportf(d.Pos, "stale suppression //next700:%s(%s): the %s analyzer reported nothing here; the waived violation is gone — delete the annotation", d.Verb, d.Arg, verbOwner[d.Verb])
	}
	return nil
}
