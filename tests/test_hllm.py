import warnings

import numpy as np
import pytest

from pcctab import (
    DegeneracyError,
    FeasibilityError,
    FitResult,
    InputError,
    ModelSpec,
    Partition,
    SparseTable,
    apply_partition,
    backward_select,
    expand_model,
    fit_hllpm,
    independence_expected,
    ipf_fit,
    model_df,
    partition_deviance,
    pearson_ratios,
    run_pcc,
)
from pcctab import hllm

from oracles import (
    conditional_independence_fit,
    dense_mutual_independence_g2,
    joint_independence_fit,
    random_table,
    reference_ipf,
)


@pytest.fixture(scope="module")
def line4_table(christensen_table):
    # the 2x1x3x3 table after three age merges and the sex collapse
    part = Partition(((0, 1), (0, 0), (0, 1, 2), (0, 0, 1, 1, 2, 2)))
    return apply_partition(christensen_table, part)


class TestModelSpec:
    def test_dominated_generators_dropped(self):
        spec = ModelSpec(((0, 1), (1,), (1, 0)))
        assert spec.generators == ((0, 1),)

    def test_negative_variable_index_rejected(self):
        with pytest.raises(InputError):
            ModelSpec(((0, 1), (-1,)))

    def test_closure(self):
        spec = ModelSpec(((0, 1), (2,)))
        assert spec.closure() == ((0,), (0, 1), (1,), (2,))

    def test_saturated_and_main_effects(self):
        assert ModelSpec.saturated(3).generators == ((0, 1, 2),)
        assert ModelSpec.main_effects(3).generators == ((0,), (1,), (2,))

    def test_remove_keeps_hierarchy(self):
        spec = ModelSpec(((0, 2, 3), (1,)))
        out = spec.remove((0, 2, 3))
        assert out.generators == ((0, 2), (0, 3), (1,), (2, 3))

    def test_brackets_round_trip(self):
        names = ("race", "sex", "opinion", "age")
        spec = ModelSpec(((2, 3), (0, 2), (1,)))
        text = spec.brackets(names)
        assert text == "[ro][s][oa]" or set(text.strip("[]").split("][")) == {"ro", "s", "oa"}
        assert ModelSpec.from_brackets(text, names) == spec

    def test_brackets_full_names(self):
        names = ("race", "sex", "opinion", "age")
        spec = ModelSpec.from_brackets("[opinion,age][race]", names)
        assert spec.generators == ((0,), (2, 3))

    def test_empty_bracket_is_skipped(self):
        names = ("sex", "age")
        assert ModelSpec.from_brackets("[s][][a]", names).generators == ((0,), (1,))

    def test_shared_initials_render_full_names(self):
        names = ("sex", "size", "age")
        spec = ModelSpec(((0, 1), (2,)))
        assert spec.brackets(names) == "[sex,size][age]"
        assert ModelSpec.from_brackets(spec.brackets(names), names) == spec

    def test_unknown_token_rejected(self):
        with pytest.raises(InputError):
            ModelSpec.from_brackets("[xy]", ("alpha", "beta"))

    def test_empty_brackets_is_grand_mean(self):
        assert ModelSpec.from_brackets("", ("a", "b")).generators == ()

    def test_whitespace_between_brackets(self):
        names = ("sex", "age")
        assert ModelSpec.from_brackets("[s] [a]", names) == ModelSpec.from_brackets("[s][a]", names)
        assert ModelSpec.from_brackets(" [s]\t [a]  [sa] ", names).generators == ((0, 1),)

    @pytest.mark.parametrize("text", ["[s", "s]", "[s] a]", "[s]]", "[s]x[a]", "[s] [q]",
                                      "[[s][a]]", "[[s]]"])
    def test_malformed_brackets_rejected(self, text):
        with pytest.raises(InputError):
            ModelSpec.from_brackets(text, ("sex", "age"))


class TestModelDf:
    def test_independence_on_5x5(self):
        assert model_df(ModelSpec.main_effects(2), (5, 5)) == 8

    def test_saturated_2x2x3x6(self):
        assert model_df(ModelSpec.saturated(4), (2, 2, 3, 6)) == 71

    def test_all_three_way_census_shape(self):
        spec = ModelSpec(((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)))
        assert model_df(spec, (11, 5, 11, 16)) == 3679

    def test_saturated_equals_cells_minus_one(self, rng):
        for _ in range(10):
            shape = tuple(int(x) for x in rng.integers(2, 6, size=int(rng.integers(2, 5))))
            assert model_df(ModelSpec.saturated(len(shape)), shape) == int(np.prod(shape)) - 1


class TestIpfFit:
    def test_saturated_fits_exactly(self, wermuth_table):
        fit = ipf_fit(wermuth_table, ModelSpec.saturated(2))
        assert fit.dev == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(fit.fitted.todense(), wermuth_table.todense())
        assert fit.converged

    def test_independence_on_wermuth(self, wermuth_table):
        fit = ipf_fit(wermuth_table, ModelSpec.main_effects(2))
        assert fit.dev == pytest.approx(357.146, abs=5e-4)
        assert fit.dfmod == 8
        assert fit.dfres == 16

    def test_conditional_independence_closed_form(self, rng):
        for shape in [(2, 2, 2), (3, 2, 2)]:
            for _ in range(20):
                arr = random_table(rng, shape, zero_frac=0.15, max_count=30)
                arr[0, 0, 0] += 1  # keep the table non-degenerate
                t = SparseTable.from_dense(arr)
                fit = ipf_fit(t, ModelSpec(((0, 1), (1, 2))))
                assert np.allclose(fit.fitted.todense(), conditional_independence_fit(arr),
                                   rtol=1e-8, atol=1e-8)

    def test_joint_independence_closed_form(self, rng):
        for _ in range(20):
            arr = random_table(rng, (3, 2, 3), zero_frac=0.15)
            arr[0, 0, 0] += 1
            t = SparseTable.from_dense(arr)
            fit = ipf_fit(t, ModelSpec(((0, 1), (2,))))
            assert np.allclose(fit.fitted.todense(), joint_independence_fit(arr),
                               rtol=1e-8, atol=1e-8)

    def test_generator_marginals_match(self, christensen_table):
        spec = ModelSpec(((0, 2), (2, 3), (1,)))
        fit = ipf_fit(christensen_table, spec)
        obs = christensen_table.todense()
        dense = fit.fitted.todense()
        for g in spec.generators:
            axes = tuple(k for k in range(4) if k not in g)
            assert np.max(np.abs(dense.sum(axis=axes) - obs.sum(axis=axes))) <= 1e-8

    def test_total_preserved(self, christensen_table):
        fit = ipf_fit(christensen_table, ModelSpec(((0, 1), (2, 3))))
        assert fit.fitted.total == pytest.approx(christensen_table.total, rel=1e-9)

    def test_grand_mean_model(self, from_dense):
        t = from_dense([[4, 2], [1, 1]])
        fit = ipf_fit(t, ModelSpec(()))
        assert np.allclose(fit.fitted.todense(), 2.0)
        assert fit.dfmod == 0
        assert fit.dfres == 3
        assert fit.iterations == 0 and fit.converged
        assert fit.max_residual == 0.0

    def test_max_residual_of_converged_fit(self, christensen_table):
        fit = ipf_fit(christensen_table, ModelSpec(((0, 2), (2, 3), (1,))))
        assert fit.converged
        assert type(fit.max_residual) is float
        assert 0.0 <= fit.max_residual <= 1e-8

    def test_max_residual_of_unconverged_fit(self, christensen_table):
        spec = ModelSpec(((0, 1), (0, 2), (1, 2), (2, 3)))
        fit = ipf_fit(christensen_table, spec, max_iter=1)
        assert fit.iterations == 1 and not fit.converged
        assert fit.max_residual > 1e-8
        longer = ipf_fit(christensen_table, spec, max_iter=2)
        assert longer.max_residual < fit.max_residual

    def test_max_residual_defaults_to_none(self, wermuth_table):
        fit = ipf_fit(wermuth_table, ModelSpec.main_effects(2))
        built = FitResult(spec=fit.spec, shape=fit.shape, fitted=fit.fitted, dev=fit.dev,
                          dfmod=fit.dfmod, dfres=fit.dfres, iterations=fit.iterations,
                          converged=fit.converged)
        assert built.max_residual is None

    def test_nested_specs_monotone(self, christensen_table):
        specs = [
            ModelSpec.main_effects(4),
            ModelSpec(((2, 3), (0,), (1,))),
            ModelSpec(((2, 3), (0, 2), (1,))),
            ModelSpec(((2, 3), (0, 2), (0, 3), (1,))),
            ModelSpec.saturated(4),
        ]
        devs = [ipf_fit(christensen_table, s).dev for s in specs]
        assert all(a >= b - 1e-9 for a, b in zip(devs, devs[1:]))

    def test_empty_table_rejected(self):
        with pytest.raises(InputError):
            ipf_fit(SparseTable((2, 2)), ModelSpec.saturated(2))

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, christensen_table, max_iter):
        # zero cycles would return the uniform start as a fit never checked
        t = christensen_table
        spec = ModelSpec(((0, 2), (2, 3), (1,)))
        calls = [
            lambda: ipf_fit(t, spec, max_iter=max_iter),
            lambda: ipf_fit(t, ModelSpec(()), max_iter=max_iter),
            lambda: backward_select(t, max_iter=max_iter),
            lambda: fit_hllpm(t, Partition.identity(t.shape), spec, max_iter=max_iter),
        ]
        for call in calls:
            with pytest.raises(InputError, match="max_iter"):
                call()

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_tol_not_positive_finite_rejected(self, christensen_table, tol):
        # a NaN tol passed ``tol <= 0`` and ran every cycle to max_iter
        t = christensen_table
        spec = ModelSpec(((0, 2), (2, 3), (1,)))
        calls = [
            lambda: ipf_fit(t, spec, tol=tol),
            lambda: backward_select(t, tol=tol),
            lambda: fit_hllpm(t, Partition.identity(t.shape), spec, tol=tol),
        ]
        for call in calls:
            with pytest.raises(InputError, match="tol"):
                call()

    @pytest.mark.parametrize("name,max_iter,cycles,converged", [
        # converges in the very cycle that max_iter allows
        ("loop", 7, 7, True),
        # one cycle short of converging
        ("loop", 6, 6, False),
        # no MLE for the no-three-way model: zeros at two opposite corners
        ("corners", 1000, 1000, False),
        # a zero generator marginal, so the ratio takes its masked form
        ("zero_slice", 1000, 9, True),
        # a zero cell under generator marginals that all stay positive
        ("zero_cell", 1000, 7, True),
        # a size-1 axis
        ("size_one", 1000, 2, True),
        # counts near 1e300: no overflow, and no convergence at an absolute tol
        ("scaled_up", 1000, 1000, False),
    ])
    def test_fit_at_the_edges_matches_reference_bitwise(self, christensen_table, from_dense,
                                                         name, max_iter, cycles, converged):
        if name == "corners":
            t = from_dense([[[0, 1], [1, 1]], [[1, 1], [1, 0]]])
            generators = ((0, 1), (0, 2), (1, 2))
        else:
            obs = christensen_table.todense()
            if name == "zero_slice":
                obs[:, :, 0, :] = 0.0
            elif name == "zero_cell":
                obs[0, 1, 2, 3] = 0.0
            elif name == "size_one":
                obs = obs.sum(axis=1, keepdims=True)
            elif name == "scaled_up":
                obs *= 1e300
            t = from_dense(obs)
            generators = ((0, 1), (0, 2), (1, 2), (2, 3))
        spec = ModelSpec(generators)
        obs = t.todense()
        want, iterations, want_converged, residual = reference_ipf(
            obs, t.total, generators, max_iter=max_iter, with_residual=True)
        assert (iterations, want_converged) == (cycles, converged)
        fit = ipf_fit(t, spec, max_iter=max_iter)
        assert fit.fitted.todense().tobytes() == want.tobytes()
        assert (fit.iterations, fit.converged, fit.max_residual.hex()) == (
            cycles, converged, residual.hex())
        # and as one member of a batch whose other fits leave earlier or later
        batch = [ModelSpec.main_effects(t.ndim), spec, ModelSpec.saturated(t.ndim),
                 ModelSpec(generators[1:])]
        got = list(hllm._ipf_batch(obs, t.total, batch, hllm.IPF_TOL, max_iter, {}))[1]
        assert got[0].tobytes() == want.tobytes()
        assert (*got[1:3], float(got[3]).hex()) == (cycles, converged, residual.hex())

    # every generator marginal is finite and positive, but the first step
    # scales the 1e-300 slice by about 1e-600, which underflows to zero
    UNDERFLOW = [[[1e300, 2e300], [3e300, 1e300]], [[1e-300, 2e-300], [3e-300, 1e-300]]]

    def test_underflow_reruns_with_the_checked_step(self, from_dense, monkeypatch):
        t = from_dense(self.UNDERFLOW)
        obs = t.todense()
        specs = [ModelSpec.main_effects(3), ModelSpec(((0, 1), (2,))),
                 ModelSpec(((0, 1), (0, 2), (1, 2)))]
        positive = []
        cycles = hllm._cycles

        def spy(*args):
            positive.append(args[-1])
            return cycles(*args)

        def fit(targets):
            with warnings.catch_warnings(record=True) as seen, np.errstate(
                    divide="warn", over="warn", invalid="warn", under="ignore"):
                warnings.simplefilter("always")
                fits = list(hllm._ipf_batch(obs, t.total, specs, hllm.IPF_TOL, 1000, targets))
            return fits, [(w.category, str(w.message)) for w in seen]

        monkeypatch.setattr(hllm, "_cycles", spy)
        targets: dict = {}
        got, warned = fit(targets)
        assert positive == [True, False]  # the plain divide raised, and the chunk reran
        # flagged as not all positive, the chunk takes the checked step from the start
        positive.clear()
        want, want_warned = fit({axes: (target, cells, False)
                                 for axes, (target, cells, _) in targets.items()})
        assert positive == [False]
        assert warned == want_warned
        for spec, (fitted, *rest), (want_fitted, *want_rest) in zip(specs, got, want):
            ref, *ref_rest = reference_ipf(obs, t.total, spec.generators, with_residual=True)
            assert fitted.tobytes() == want_fitted.tobytes() == ref.tobytes()
            assert (*rest[:2], float(rest[2]).hex()) == (*want_rest[:2], float(want_rest[2]).hex())
            assert (*rest[:2], float(rest[2]).hex()) == (*ref_rest[:2], ref_rest[2].hex())
            assert not fitted[1].any()  # the 1e-300 slice underflowed

    def test_numpy_error_settings_are_kept(self, christensen_table, from_dense):
        before = np.geterr()
        ipf_fit(christensen_table, ModelSpec.main_effects(4))
        backward_select(christensen_table)
        assert np.geterr() == before
        t = from_dense(self.UNDERFLOW)
        # the underflowed slice leaves observed cells with a zero fit
        for call in (lambda: ipf_fit(t, ModelSpec.main_effects(3)), lambda: backward_select(t)):
            with pytest.raises(DegeneracyError):
                call()
            assert np.geterr() == before
            with np.errstate(all="raise"):
                # the rerun underflows under the caller's settings, as the checked step did
                with pytest.raises(FloatingPointError, match="underflow"):
                    call()
                assert np.geterr() == dict.fromkeys(before, "raise")
            assert np.geterr() == before

    @pytest.mark.parametrize("call", [
        lambda t, spec: ipf_fit(t, spec),
        lambda t, spec: backward_select(t, spec),
        lambda t, spec: fit_hllpm(t, Partition.identity(t.shape), spec),
    ])
    def test_spec_naming_a_missing_variable_rejected(self, from_dense, monkeypatch, call):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit was started")

        monkeypatch.setattr(hllm, "_ipf_batch", no_fit)
        with pytest.raises(InputError, match=r"\(0, 5\) out of range for shape \(2, 2\)"):
            call(from_dense([[1, 2], [3, 4]]), ModelSpec(((0, 5),)))

    def test_zero_cells_keep_df(self, from_dense):
        t = from_dense([[0, 3, 1], [2, 0, 4], [1, 2, 0]])
        fit = ipf_fit(t, ModelSpec.main_effects(2))
        assert fit.dfres == 4  # no adjustment for sampling zeros


# published backward-selection rows for the collapsed 2x1x3x3 table:
# generators, dev, dfmod, dfres, dev_term, df_term, adj_rsq (None = not listed)
LINE4_ROWS = [
    (7, ((0, 2, 3), (1,)), 0.000, 17, 0, None, None, None),
    (8, ((0, 2), (0, 3), (1,), (2, 3)), 5.245, 13, 4, 5.245, 4, 0.800),
    (9, ((0, 2), (1,), (2, 3)), 9.225, 11, 6, 3.980, 2, 0.766),
    (10, ((0,), (1,), (2, 3)), 23.214, 9, 8, 13.989, 2, 0.558),
    (11, ((0,), (1,), (2,), (3,)), 78.811, 5, 12, 55.597, 4, 0.000),
]


@pytest.fixture(scope="module")
def line4_backward(line4_table):
    return backward_select(line4_table)


class TestBackwardSelect:
    @pytest.fixture()
    def trace(self, line4_backward):
        return line4_backward

    def test_starts_saturated(self, trace):
        assert trace.steps[0].spec == ModelSpec.saturated(4)
        assert trace.steps[0].dev == pytest.approx(0.0, abs=1e-9)
        assert trace.steps[0].dfmod == 17
        assert trace.steps[0].adj_rsq == 1.0

    def test_ends_at_main_effects(self, trace):
        assert trace.steps[-1].spec == ModelSpec.main_effects(4)

    @pytest.mark.parametrize("row", LINE4_ROWS, ids=lambda r: f"r{r[0]}")
    def test_published_rows(self, trace, row):
        r, gens, dev, dfmod, dfres, dev_term, df_term, adj = row
        step = trace.steps[r]
        assert step.spec == ModelSpec(gens)
        assert step.dev == pytest.approx(dev, abs=5e-3)
        assert step.dfmod == dfmod
        assert step.dfres == dfres
        if dev_term is not None:
            assert step.dev_term == pytest.approx(dev_term, abs=5e-3)
        if df_term is not None:
            assert step.df_term == df_term
        if adj is not None:
            assert step.adj_rsq == pytest.approx(adj, abs=5e-4)

    def test_zero_parameter_terms_removed_first(self, trace):
        # the singleton sex variable makes every interaction containing it free
        for step in trace.steps[1:8]:
            assert step.df_term == 0
            assert step.dev == pytest.approx(0.0, abs=1e-9)

    def test_dev_nondecreasing(self, trace):
        devs = [s.dev for s in trace.steps]
        assert all(b >= a - 1e-9 for a, b in zip(devs, devs[1:]))

    def test_wermuth_has_two_rows(self, wermuth_table):
        trace = backward_select(wermuth_table)
        assert len(trace.steps) == 2
        assert trace.steps[0].dfmod == 24
        assert trace.steps[1].dev == pytest.approx(357.146, abs=5e-4)
        assert trace.steps[1].dfmod == 8

    def test_mutually_independent_table_sheds_interactions_freely(self, rng):
        margins = [np.array([30.0, 50.0, 20.0]), np.array([60.0, 40.0]), np.array([25.0, 75.0])]
        arr = np.einsum("i,j,k->ijk", *margins) / 100.0 ** 2
        trace = backward_select(SparseTable.from_dense(arr))
        for s in trace.steps:
            assert s.dev == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["wermuth_table", "christensen_table"])
    def test_candidates_converged_on_bundled_data(self, name, request):
        trace = backward_select(request.getfixturevalue(name))
        assert all(s.converged and s.candidates_converged for s in trace.steps)

    def test_candidates_converged_false_after_one_cycle(self, christensen_table):
        trace = backward_select(christensen_table, max_iter=1)
        assert len(trace.steps) > 1
        assert not any(s.candidates_converged for s in trace.steps)

    def test_chunked_candidates_give_the_same_trace(self, christensen_table, monkeypatch):
        want = backward_select(christensen_table)
        monkeypatch.setattr(hllm, "_BATCH_CELLS", 2)  # one candidate per chunk
        assert backward_select(christensen_table) == want

    def test_tied_terms_go_to_the_smaller_one(self):
        # symmetric in variables 0 and 1, so after the three-way term removing
        # (0, 2) or (1, 2) costs the same up to rounding: the two fits scale
        # in different orders and may differ in the last bits, which a plain
        # minimum would follow
        x0, x1, x2 = np.meshgrid(np.arange(3), np.arange(3), np.arange(3), indexing="ij")
        arr = np.round(40 * np.exp(1.2 * x0 * x1 + 0.3 * (x0 + x1) * x2 - 0.2 * x2))
        assert (arr == arr.transpose(1, 0, 2)).all()
        t = SparseTable.from_dense(arr)
        two_way = ModelSpec(((0, 1), (0, 2), (1, 2)))
        d02, d12 = (ipf_fit(t, two_way.remove(term)).dev for term in [(0, 2), (1, 2)])
        assert d02 == pytest.approx(d12, rel=1e-12)
        trace = backward_select(t)
        assert trace.steps[1].spec == two_way
        assert trace.steps[2].spec == two_way.remove((0, 2))
        assert trace.steps[2].dev == d02


class TestFitHllpm:
    def test_wermuth_row4_saturated(self, wermuth_table):
        part = Partition(((0, 0, 1, 1, 1), (0, 1, 2, 3, 3)))
        fit = fit_hllpm(wermuth_table, part, ModelSpec.saturated(2))
        assert fit.dev == pytest.approx(35.69, abs=5e-3)
        assert fit.dfmod == 7  # saturated parameters of the 2x4 collapsed shape
        assert fit.dfres == 17
        assert fit.fitted.total == pytest.approx(3673, rel=1e-9)

    def test_identity_partition_saturated_is_exact(self, wermuth_table):
        fit = fit_hllpm(wermuth_table, Partition.identity((5, 5)), ModelSpec.saturated(2))
        assert fit.dev == pytest.approx(0.0, abs=1e-9)

    def test_reports_inner_fit_convergence(self, christensen_table):
        part = Partition(((0, 1), (0, 0), (0, 1, 2), (0, 0, 1, 1, 2, 2)))
        spec = ModelSpec(((0, 2), (2, 3), (1,)))
        fit = fit_hllpm(christensen_table, part, spec)
        inner = ipf_fit(apply_partition(christensen_table, part), spec)
        assert (fit.iterations, fit.converged, fit.max_residual) == \
            (inner.iterations, inner.converged, inner.max_residual)

    def test_christensen_row4_saturated(self, christensen_table):
        part = Partition(((0, 1), (0, 0), (0, 1, 2), (0, 0, 1, 1, 2, 2)))
        fit = fit_hllpm(christensen_table, part, ModelSpec.saturated(4))
        assert fit.dev == pytest.approx(42.65, abs=5e-3)

    def test_matches_trace_cumulative_dev(self, rng):
        for _ in range(6):
            arr = random_table(rng, (4, 3, 2), zero_frac=0.15)
            t = SparseTable.from_dense(arr)
            if t.total == 0:
                continue
            trace = run_pcc(t)
            for r in (1, len(trace.steps) // 2):
                part = trace.partition_at(r)
                fit = fit_hllpm(t, part, ModelSpec.saturated(3))
                assert fit.dev == pytest.approx(trace.steps[r].dev, rel=1e-6, abs=1e-8)

    def test_full_collapse_is_mutual_independence(self, rng):
        arr = random_table(rng, (3, 4), zero_frac=0.0)
        t = SparseTable.from_dense(arr)
        part = Partition(((0, 0, 0), (0, 0, 0, 0)))
        fit = fit_hllpm(t, part, ModelSpec.saturated(2))
        assert fit.dev == pytest.approx(dense_mutual_independence_g2(arr), rel=1e-9)

    def test_fitted_is_on_the_collapsed_shape(self, christensen_table, line4_table):
        part = Partition(((0, 1), (0, 0), (0, 1, 2), (0, 0, 1, 1, 2, 2)))
        spec = ModelSpec(((0, 2), (2, 3), (1,)))
        fit = fit_hllpm(christensen_table, part, spec)
        assert fit.shape == christensen_table.shape
        assert fit.fitted.shape == line4_table.shape
        assert np.array_equal(fit.fitted.todense(), ipf_fit(line4_table, spec).fitted.todense())

    def test_original_shape_beyond_memory(self, rng):
        # 10^15 cells: only an evaluator that never expands densely can run
        shape = (100_000,) * 3
        coords = rng.integers(0, 100_000, size=(40, 3))
        t = SparseTable(shape, coords, rng.integers(1, 30, size=40).astype(float))
        part = Partition(tuple(tuple(c % 4 for c in range(s)) for s in shape))
        fit = fit_hllpm(t, part, ModelSpec.saturated(3))
        assert fit.fitted.shape == (4, 4, 4)
        assert fit.dfres == 10 ** 15 - 1 - 63
        assert fit.dev == pytest.approx(partition_deviance(t, part), rel=1e-12)


# observed-over-independence ratios for the 5x5 table, first row, and the
# expanded two-group model from the fourth collapse step
RATIOS_ROW0 = [0.873, 0.657, 0.814, 1.652, 1.941]
RATIOS_ROW4_TOP = [0.56, 0.90, 1.17, 1.35, 1.35]
RATIOS_ROW4_BOTTOM = [1.46, 1.11, 0.82, 0.63, 0.63]


class TestPearsonRatios:
    def test_wermuth_vs_independence_first_row(self, wermuth_table):
        ratios = pearson_ratios(wermuth_table)
        assert ratios[0] == pytest.approx(RATIOS_ROW0, abs=1e-3)

    def test_uniform_table_gives_unit_ratios(self, from_dense):
        ratios = pearson_ratios(from_dense(np.full((3, 4), 5.0)))
        assert np.allclose(ratios, 1.0)

    def test_expanded_row4_model_vs_independence(self, wermuth_table):
        part = Partition(((0, 0, 1, 1, 1), (0, 1, 2, 3, 3)))
        collapsed = apply_partition(wermuth_table, part)
        probs = SparseTable(collapsed.shape, collapsed.coords,
                            collapsed.counts / collapsed.total)
        expansion = expand_model(probs, part, wermuth_table.one_way_marginals())
        model_counts = SparseTable(expansion.shape, expansion.coords,
                                   expansion.counts * wermuth_table.total)
        ratios = pearson_ratios(model_counts, independence_expected(wermuth_table))
        for i in (0, 1):
            assert ratios[i] == pytest.approx(RATIOS_ROW4_TOP, abs=5e-3)
        for i in (2, 3, 4):
            assert ratios[i] == pytest.approx(RATIOS_ROW4_BOTTOM, abs=5e-3)

    def test_fit_result_reference(self, wermuth_table):
        fit = ipf_fit(wermuth_table, ModelSpec.saturated(2))
        assert np.allclose(pearson_ratios(wermuth_table, fit), 1.0)

    def test_zero_observed_zero_expected_is_one(self, from_dense):
        observed = from_dense([[2.0, 0.0], [0.0, 0.0]])
        expected = np.array([[2.0, 0.0], [0.0, 0.0]])
        ratios = pearson_ratios(observed, expected)
        assert ratios[0, 1] == 1.0 and ratios[1, 1] == 1.0

    def test_positive_observed_zero_expected_rejected(self, from_dense):
        observed = from_dense([[2.0, 1.0], [1.0, 1.0]])
        expected = np.array([[2.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegeneracyError):
            pearson_ratios(observed, expected)

    def test_shape_mismatch_rejected(self, wermuth_table, from_dense):
        with pytest.raises(InputError):
            pearson_ratios(wermuth_table, from_dense(np.ones((2, 2))))

    def test_partition_model_fit_is_not_on_the_original_shape(self, wermuth_table):
        part = Partition(((0, 0, 1, 1, 1), (0, 1, 2, 3, 3)))
        fit = fit_hllpm(wermuth_table, part, ModelSpec.saturated(2))
        with pytest.raises(InputError, match="does not match observed"):
            pearson_ratios(wermuth_table, fit)


class TestDenseSizeGuard:
    """A table past ``MAX_DENSE_CELLS`` is refused before anything dense
    is allocated; (1000,)*3 would take 7.5 GiB as float64."""

    @pytest.fixture(scope="class")
    def huge(self):
        return SparseTable((1000,) * 3, [[0, 0, 0], [1, 2, 3], [999, 999, 999]], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("call", [
        lambda t: t.todense(),
        lambda t: ipf_fit(t, ModelSpec.from_brackets("[a][b][c]", ("a", "b", "c"))),
        backward_select,
        pearson_ratios,
        independence_expected,
        lambda t: expand_model(t, Partition.identity(t.shape), t.one_way_marginals()),
    ])
    def test_refused(self, huge, call):
        with pytest.raises(FeasibilityError, match="1000000000 cells") as info:
            call(huge)
        assert info.value.size == 10 ** 9
