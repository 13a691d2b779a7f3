let () =
  Alcotest.run "symbad"
    [
      ("sim", Test_sim.suite);
      ("tlm", Test_tlm.suite);
      ("fpga", Test_fpga.suite);
      ("image", Test_image.suite);
      ("sat", Test_sat.suite);
      ("hdl", Test_hdl.suite);
      ("lpv", Test_lpv.suite);
      ("mc", Test_mc.suite);
      ("pcc", Test_pcc.suite);
      ("symbc", Test_symbc.suite);
      ("atpg", Test_atpg.suite);
      ("core", Test_core.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("gov", Test_gov.suite);
      ("resil", Test_resil.suite);
      ("lint", Test_lint.suite);
      ("report", Test_report.suite);
      ("cache", Test_cache.suite);
      ("baseline", Test_baseline.suite);
    ]
