package a

// Second corpus file: wants and suppressions are collected across all
// files of the package, not just the first.

func crossFile(g *guarded) {
	/* want `//dpx10:allow for goroleak lacks a rationale` */ //dpx10:allow goroleak
	g.ch <- 7
}
