"""The paper's Fig. 1 scenario: credit-card default prediction from CSV.

Builds the exact data table of the paper's running example (10 customers,
mixed numeric/categorical attributes), trains an exact decision tree, prints
the learned split conditions in the paper's notation, and demonstrates
Appendix D's handling of missing values and categories unseen during
training: prediction simply stops at the current node and reports its PMF.

Run:  python examples/credit_default.py
"""

import io

import numpy as np

from repro import TreeConfig, train_tree
from repro.data import DataTable, read_csv

FIG1_CSV = """age,education,home_owner,income,default
24,Bachelor,No,5000,No
28,Master,Yes,7500,No
44,Bachelor,Yes,5500,No
32,Secondary,Yes,6000,Yes
36,PhD,No,10000,No
48,Bachelor,Yes,6500,No
37,Secondary,No,3000,Yes
42,Bachelor,No,6000,No
54,Secondary,No,4000,Yes
47,PhD,Yes,8000,No
"""


def print_tree(node, table, indent: str = "") -> None:
    """Pretty-print a tree with split conditions in the paper's style."""
    if node.is_leaf:
        label = table.schema.target.categories[node.predicted_label()]
        pmf = ", ".join(
            f"{c}: {p:.0%}"
            for c, p in zip(table.schema.target.categories, node.prediction)
        )
        print(f"{indent}leaf -> {label}  ({pmf}, {node.n_rows} rows)")
        return
    name = table.column_spec(node.split.column).name
    if node.split.threshold is not None:
        condition = f"{name} <= {node.split.threshold:g}"
    else:
        cats = sorted(
            table.column_spec(node.split.column).categories[c]
            for c in node.split.left_categories
        )
        condition = f"{name} in {cats}"
    print(f"{indent}{condition}?")
    print_tree(node.left, table, indent + "  yes: ")
    print_tree(node.right, table, indent + "  no:  ")


def applicant_pmf(tree, table, applicant, max_depth=None):
    """The tree's PMF for one applicant: a one-row table through the model."""
    row = DataTable(table.schema, [[value] for value in applicant], [0])
    return tree.predict_proba(row, max_depth)[0]


def main() -> None:
    table = read_csv(io.StringIO(FIG1_CSV), target="default")
    print(f"loaded {table.n_rows} customers, {table.n_columns} attributes\n")

    tree = train_tree(table, TreeConfig(max_depth=4))
    print("learned decision tree:")
    print_tree(tree.root, table)

    # A new applicant: 30 years old, Bachelor, not a home owner, $5.5k.
    edu = table.column_spec(1)
    home = table.column_spec(2)
    applicant = [30.0, edu.code_of("Bachelor"), home.code_of("No"), 5500.0]
    pmf = applicant_pmf(tree, table, applicant)
    classes = table.schema.target.categories
    print(f"\napplicant prediction: {classes[int(np.argmax(pmf))]} "
          f"(PMF: {dict(zip(classes, np.round(pmf, 2)))})")

    # Appendix D: a missing income stops the descent at the node testing
    # income and reports that node's PMF instead of guessing a branch.
    applicant_missing = [30.0, edu.code_of("Bachelor"), home.code_of("No"),
                         float("nan")]
    pmf_missing = applicant_pmf(tree, table, applicant_missing)
    print(f"with missing income:  {classes[int(np.argmax(pmf_missing))]} "
          f"(PMF: {dict(zip(classes, np.round(pmf_missing, 2)))})")

    # An education level never seen in training ('Primary' appears in the
    # schema but not in any training row of some node's D_x) behaves the
    # same way: the descent stops where the value is unseen.
    applicant_unseen = [30.0, -1, home.code_of("No"), 5500.0]
    pmf_unseen = applicant_pmf(tree, table, applicant_unseen)
    print(f"with unknown school:  {classes[int(np.argmax(pmf_unseen))]} "
          f"(PMF: {dict(zip(classes, np.round(pmf_unseen, 2)))})")

    # Depth-truncated prediction (train once, predict at any depth).
    for depth in (1, 2):
        pmf_d = applicant_pmf(tree, table, applicant, max_depth=depth)
        print(f"prediction at depth <= {depth}: "
              f"{classes[int(np.argmax(pmf_d))]}")


if __name__ == "__main__":
    main()
