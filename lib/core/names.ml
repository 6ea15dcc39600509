module File_id = Vstore.File_id

module Service = struct
  type t = {
    namespace : Vstore.Namespace.t;
    pending : (Vstore.Namespace.t -> unit) Queue.t File_id.Tbl.t;
  }

  let create ~fresh_id =
    { namespace = Vstore.Namespace.create ~fresh_id; pending = File_id.Tbl.create 16 }

  let namespace t = t.namespace
  let make_directory t name = Vstore.Namespace.make_directory t.namespace name
  let directory_id t name = Vstore.Namespace.directory_id t.namespace name

  let submit t ~dir_id mutation =
    let q =
      match File_id.Tbl.find_opt t.pending dir_id with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        File_id.Tbl.replace t.pending dir_id q;
        q
    in
    Queue.push mutation q

  let on_commit t file _version =
    match File_id.Tbl.find_opt t.pending file with
    | Some q when not (Queue.is_empty q) -> (Queue.pop q) t.namespace
    | Some _ | None -> ()

  let pending t file =
    match File_id.Tbl.find_opt t.pending file with Some q -> Queue.length q | None -> 0
end

module Cache = struct
  type t = { client : Client.t; service : Service.t }

  let create ~client ~service = { client; service }

  type open_result = {
    o_file : File_id.t option;
    o_version : Vstore.Version.t option;
    o_dir_cached : bool;
    o_file_cached : bool;
  }

  let dir_id_exn t dir =
    match Service.directory_id t.service dir with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Names.Cache: unknown directory %S" dir)

  let open_file t ~dir ~name ~k =
    let dir_id = dir_id_exn t dir in
    (* Read the directory under a lease; while that lease is valid the
       shared namespace cannot change under us (a rename would first need
       our approval or our lease's expiry). *)
    Client.read t.client dir_id ~k:(fun dir_read ->
        match Vstore.Namespace.lookup (Service.namespace t.service) ~dir ~name with
        | None ->
          k
            {
              o_file = None;
              o_version = None;
              o_dir_cached = dir_read.Client.r_from_cache;
              o_file_cached = false;
            }
        | Some file ->
          Client.read t.client file ~k:(fun file_read ->
              k
                {
                  o_file = Some file;
                  o_version = Some file_read.Client.r_version;
                  o_dir_cached = dir_read.Client.r_from_cache;
                  o_file_cached = file_read.Client.r_from_cache;
                }))

  let mutate t ~dir mutation ~k =
    let dir_id = dir_id_exn t dir in
    Service.submit t.service ~dir_id mutation;
    Client.write t.client dir_id ~k:(fun _ -> k ())

  let bind t ~dir ~name file ~k =
    mutate t ~dir (fun namespace -> Vstore.Namespace.bind namespace ~dir ~name file) ~k

  let rename t ~dir ~old_name ~new_name ~k =
    let apply namespace =
      (* authoritative existence check happens here, at commit *)
      match Vstore.Namespace.lookup namespace ~dir ~name:old_name with
      | Some _ -> Vstore.Namespace.rename namespace ~dir ~old_name ~new_name
      | None -> ()
    in
    mutate t ~dir apply ~k

  let unbind t ~dir ~name ~k =
    let apply namespace =
      match Vstore.Namespace.lookup namespace ~dir ~name with
      | Some _ -> Vstore.Namespace.unbind namespace ~dir ~name
      | None -> ()
    in
    mutate t ~dir apply ~k
end
